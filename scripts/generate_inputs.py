#!/usr/bin/env python3
"""Write the worked-example input files for the CLI.

Produces, in the chosen directory:

* ``x.series.json``, ``y.series.json``      -- the two coordinate monomials
* ``log_xy.series.json``                    -- ln(3/2 + xy) as a table
* ``log_xy_mixed.series.json``              -- its mixed-ideal part (decay input)
* ``log_xy.qfn.json``                       -- the same as a function rep
* ``orbit_log.qfn.json``                    -- the two-variable example
                                               whose spectrum is the orbit
                                               ln(3/2) + q^m/(q^m - 3/2)
* ``base_disk.disks.json``, ``probe.points.json`` -- hull demo inputs

Reproduce the headline numbers with::

    qplane specmap log_xy.qfn.json --n 32        # last line <= 1e-8
    qplane specmap orbit_log.qfn.json --n 24     # last line <= 1e-6
    qplane decay log_xy_mixed.series.json        # ratio column <= 1
"""

import argparse
import math
from pathlib import Path

from qplane import fileio
from qplane import qalgebra as qa
from qplane.holo import HoloSeries, log_series
from qplane.opcalc import QFunctionRep
from qplane.qalgebra import QSeries


def log_xy_series(q: complex, degree: int) -> QSeries:
    return qa.log_shifted(1.5, QSeries.monomial(q, degree, 1, 1))


def log_xy_function(q: complex, terms: int, degree: int) -> QFunctionRep:
    r = math.sqrt(1.5)
    f_list = [HoloSeries.monomial(degree, 0, math.log(1.5))]
    for n in range(1, terms + 1):
        cn = (-1) ** (n + 1) / n * (2.0 / 3.0) ** n * q ** (n * (n - 1) // 2)
        f_list.append(
            HoloSeries.monomial(degree, n, cn) if n <= degree else HoloSeries.zero(degree)
        )
    return QFunctionRep(q, tuple(f_list), r, r)


def orbit_log_function(q: complex, terms: int, degree: int) -> QFunctionRep:
    r = 1.5 - 1e-9
    f_list = [log_series(1.5, degree)]
    for n in range(1, terms + 1):
        cn = (2.0 / 3.0) ** n
        coeffs = cn * log_series(1.5 + 1.0 / n, degree).coeffs.copy()
        coeffs[0] = -cn  # the y/(y - 3/2) geometric tail
        f_list.append(HoloSeries(coeffs))
    return QFunctionRep(q, tuple(f_list), r, r)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="example_inputs")
    parser.add_argument("--q", type=float, default=0.5)
    parser.add_argument("--trunc", type=int, default=32)
    parser.add_argument("--terms", type=int, default=40)
    parser.add_argument("--degree", type=int, default=40)
    args = parser.parse_args()

    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    q = complex(args.q)

    def dump(name, payload):
        with open(out / name, "w", encoding="utf-8") as fp:
            fileio.dump_json(payload, fp)
        print(f"wrote {out / name}")

    dump("x.series.json",
         fileio.qseries_to_payload(QSeries.monomial(q, args.trunc, 1, 0)))
    dump("y.series.json",
         fileio.qseries_to_payload(QSeries.monomial(q, args.trunc, 0, 1)))
    full = log_xy_series(q, args.trunc)
    dump("log_xy.series.json", fileio.qseries_to_payload(full))
    dump("log_xy_mixed.series.json",
         fileio.qseries_to_payload(qa.decompose(full).f_xy))
    dump("log_xy.qfn.json",
         fileio.qfunction_to_payload(log_xy_function(q, args.terms, args.degree)))
    dump("orbit_log.qfn.json",
         fileio.qfunction_to_payload(orbit_log_function(q, args.terms, args.degree)))
    dump("base_disk.disks.json", [{"re": 1.0, "im": 0.0, "radius": 0.1}])
    dump("probe.points.json",
         [[0.0, 0.0], [0.5, 0.0], [0.3, 0.0], [1.05, 0.0], [0.25, 0.0]])


if __name__ == "__main__":
    main()
