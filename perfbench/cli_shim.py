"""Run one qplane CLI call with the tracer's wrappers in place.

    python3 perfbench/cli_shim.py SPANS_OUT TASK_ID SUBCOMMAND [ARGS...]

Behaves like ``python -m qplane.cli``: same exit code, same stdout, and
an uncaught exception prints its traceback and exits 1.  The spans of
the call are written to ``SPANS_OUT`` when it ends.
"""

import sys
import traceback

import tracer as tracing


def main() -> int:
    out, task_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tr = tracing.Tracer()
    tr.task_id = task_id
    tracing.install(tr, cli=True)
    from qplane import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits this way
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        tr.pause()
        tr.dump(out)


if __name__ == "__main__":
    sys.exit(main())
