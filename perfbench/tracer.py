"""Span recorder that wraps qplane's public functions from the outside.

Nothing here edits the library: :func:`install` swaps module and class
attributes for timing wrappers and :meth:`Tracer.pause` puts the
originals back, so untraced rounds run the library exactly as shipped.  The
modules call each other through module attributes (``_accel.qmul_full``,
``qalgebra.qmul`` inside ``decay_profile``, ``koszul.build`` inside
``spectrum_scan``), which is why swapping the attribute catches the
internal calls as well.

Each span keeps its name, start, end, parent span and task id in
compact arrays; counts computed from a call's arguments and result
(cells, tuples, scan points, rejection-sampling draws) are kept beside
them.  Spans stay in memory and :meth:`Tracer.dump` writes them out when
the run ends.  A layer's self time is its span's duration minus the
time covered by its child spans (children never overlap: one thread).
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


SPAN_FIELDS = ("name", "parent", "task", "start", "end", "raised")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.task_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        # results of membership calls made directly by is_q_spiraling,
        # keyed by that span's index
        self._draws: dict[int, list[bool]] = {}

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(tracer, span_index, bound_args, result)`` may add
        counts once the call has returned.
        """
        nid = self._intern(name)
        sig = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.task.append(self.task_id)
            self.raised.append(1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            self.raised[idx] = 0
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, idx, bound.arguments, result)
            return result

        return traced

    def replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), new))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def pause(self) -> None:
        """Put the library's own functions back."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def dump(self, path) -> None:
        save(path, self.names, self.arrays(), self.counts)


def save(path, names, spans, counts) -> None:
    """Write spans and counts to ``path`` (numpy ``.npz``)."""
    np.savez_compressed(
        path,
        names=np.asarray(names, dtype=str),
        count_keys=np.asarray(list(counts), dtype=str),
        count_values=np.asarray(list(counts.values()), dtype=float),
        **spans,
    )


def load(path):
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        spans = {k: data[k] for k in SPAN_FIELDS}
        counts = dict(zip(map(str, data["count_keys"]), map(float, data["count_values"])))
    return names, spans, counts


def merge(sets):
    """Join ``(names, spans, counts)`` sets from several processes into one."""
    names: list[str] = []
    ids: dict[str, int] = {}
    parts = {k: [] for k in SPAN_FIELDS}
    counts: dict[str, float] = defaultdict(float)
    offset = 0
    for set_names, spans, set_counts in sets:
        remap = np.asarray([ids.setdefault(n, len(ids)) for n in set_names] or [0], dtype=np.int32)
        names = list(ids)
        for k in SPAN_FIELDS:
            col = spans[k]
            if k == "name":
                col = remap[col]
            elif k == "parent":
                col = np.where(col >= 0, col + offset, -1).astype(np.int32)
            parts[k].append(col)
        offset += spans["name"].size
        for key, value in set_counts.items():
            counts[key] += value
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
    return names, merged, dict(counts)


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds, self seconds, raised."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    k = len(names)
    ids = spans["name"]
    calls = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=dur, minlength=k)
    busy = np.bincount(ids, weights=own, minlength=k)
    raised = np.bincount(ids, weights=spans["raised"].astype(float), minlength=k)
    return {
        name: {
            "calls": float(calls[i]),
            "incl_s": float(incl[i]),
            "busy_s": float(busy[i]),
            "raised": float(raised[i]),
        }
        for i, name in enumerate(names)
        if calls[i]
    }


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _count_qmul(tr, idx, a, out):
    f, g = a["f"], a["g"]
    computed = (f.coeffs.shape[0] + g.coeffs.shape[0] - 1) * (
        f.coeffs.shape[1] + g.coeffs.shape[1] - 1
    )
    tr.counts["qalgebra.qmul.cells_kept"] += out.coeffs.size
    tr.counts["qalgebra.qmul.cells_computed"] += computed


def _count_qmul_full(tr, idx, a, out):
    tr.counts["accel.qmul_full.cells_computed"] += out.size


def _count_qpow_formula(tr, idx, a, out):
    tr.counts["accel.qpow_formula.tuples"] += len(a["ii"]) ** int(a["s"])


def _count_scan(tr, idx, a, rows):
    n = a["pair"].n
    tr.counts[f"koszul.spectrum_scan.n{n}.points"] += len(rows)
    tr.counts[f"koszul.spectrum_scan.n{n}.seconds"] += tr.end[idx] - tr.start[idx]
    tr.counts["koszul.spectrum_scan.error_rows"] += sum(1 for r in rows if r.error)


def _spiraling_wrapper(tr: Tracer, original):
    """Trace is_q_spiraling and turn its membership calls into draw counts.

    The function asks ``member(0)`` first, then for each draw asks
    ``member(z)`` and, on a hit, ``member(q z)``; the answers in call
    order give draws and accepted points without touching the library.
    """
    sig = inspect.signature(original)
    traced = tr.wrap("qtopology.is_q_spiraling", original)

    @functools.wraps(original)
    def spiraling(*args, **kwargs):
        idx = len(tr.start)
        tr._draws[idx] = answers = []
        try:
            return traced(*args, **kwargs)
        finally:
            del tr._draws[idx]
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            draws = accepted = 0
            pos = 1  # answers[0] is the origin test
            while pos < len(answers):
                draws += 1
                if answers[pos]:
                    accepted += 1
                    pos += 1  # the q*z test that follows a hit
                pos += 1
            budget = bound.arguments["samples"] * bound.arguments["retry_factor"]
            region = type(bound.arguments["region"]).__name__
            for key in ("qtopology.is_q_spiraling", f"qtopology.is_q_spiraling.{region}"):
                tr.counts[f"{key}.draws"] += draws
                tr.counts[f"{key}.accepted"] += accepted
            tr.counts["qtopology.is_q_spiraling.budget_exhausted"] += int(draws >= budget)

    return spiraling


def _draw_recorder(tr: Tracer, inner):
    """Pass membership answers to an enclosing is_q_spiraling span."""

    @functools.wraps(inner)
    def contains(self, z):
        member = inner(self, z)
        if tr.stack and tr.stack[-1] in tr._draws:
            tr._draws[tr.stack[-1]].append(bool(member))
        return member

    return contains


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap the public functions of every qplane module (and the CLI's)."""
    from qplane import _accel, fileio, holo, koszul, opcalc, qalgebra, qtopology

    t = tracer
    t.patch(_accel, "qmul_full", "accel.qmul_full", _count_qmul_full)
    t.patch(_accel, "qpow_formula", "accel.qpow_formula", _count_qpow_formula)

    t.patch(qalgebra, "qmul", "qalgebra.qmul", _count_qmul)
    for fn in ("qpow", "decompose", "seminorm", "p_seminorm", "decay_profile",
               "twist", "spec_eval", "log_shifted"):
        t.patch(qalgebra, fn, f"qalgebra.{fn}")

    t.patch(holo.HoloSeries, "eval_matrix", "holo.eval_matrix")
    t.patch(holo.HoloSeries, "__call__", "holo.eval")

    for fn in ("model_pair", "calc", "eigenvalues", "pair_eigenvalues",
               "spectral_mapping_check"):
        t.patch(opcalc, fn, f"opcalc.{fn}")

    t.patch(koszul, "build", "koszul.build")
    t.patch(koszul, "composite_defect", "koszul.composite_defect")
    t.patch(koszul, "homology_dims", "koszul.homology_dims")
    t.patch(koszul, "spectrum_scan", "koszul.spectrum_scan", _count_scan)

    t.patch(qtopology, "spiral_neighborhood", "qtopology.spiral_neighborhood")
    # is_q_spiraling asks a hull or a disk union for membership.  Disk
    # unions are also asked inside every hull walk, far too often for a
    # span each, so they only report their answers.
    hull_contains = qtopology.QHull.contains
    t.replace(qtopology.QHull, "contains", _draw_recorder(
        t, t.wrap("qtopology.QHull.contains", hull_contains)))
    t.replace(qtopology.DiskUnion, "contains",
              _draw_recorder(t, qtopology.DiskUnion.contains))
    t.replace(qtopology, "is_q_spiraling",
              _spiraling_wrapper(t, qtopology.is_q_spiraling))

    if cli:
        from qplane import cli as cli_mod

        for fn in ("load_json", "qseries_from_payload", "qfunction_from_payload",
                   "diskunion_from_payload", "points_from_payload"):
            t.patch(fileio, fn, "fileio.read")
        for fn in ("dump_json", "write_csv", "qseries_to_payload",
                   "diskunion_to_payload", "matrix_to_payload"):
            t.patch(fileio, fn, "fileio.write")
        t.patch(cli_mod, "main", "cli.main")
        for fn in dir(cli_mod):
            if fn.startswith("cmd_"):
                t.patch(cli_mod, fn, "cli.command")
