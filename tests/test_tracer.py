"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps qplane functions by attribute name and
reads some of their arguments by parameter name; a rename in the
library would otherwise surface only in a traced benchmark run.
"""

from pathlib import Path

import numpy as np

from qplane import _accel, cli, koszul, opcalc, qtopology
from qplane import qalgebra as qa
from qplane.qalgebra import QSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_then_pause_restores_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def wrapped():
        return (_accel.qmul_full, qa.qmul, opcalc.pair_eigenvalues, koszul.build,
                koszul.composite_defect, koszul.spectrum_scan, qtopology.is_q_spiraling,
                qtopology.QHull.contains, qtopology.DiskUnion.contains, cli.main)

    originals = wrapped()
    t = tracer.Tracer()
    tracer.install(t, cli=True)
    try:
        assert all(a is not b for a, b in zip(wrapped(), originals))
        # calls whose counters read arguments by parameter name
        x, y = QSeries.monomial(0.5, 2, 1, 0), QSeries.monomial(0.5, 2, 0, 1)
        qa.qmul(x, y)
        qa.qpow(x + y, 2, method="formula")
        pair = opcalc.model_pair(0.5, 4)
        koszul.spectrum_scan(pair, "y", koszul.GridSpec(0.0, 1.0, 0.0, 0.0, 5))
        hull = qtopology.QHull(qtopology.DiskUnion.single(1.0, 0.1), 0.5)
        assert qtopology.is_q_spiraling(hull, 0.5, samples=10)
    finally:
        t.pause()
    assert wrapped() == originals
    summary = tracer.summarize(t.names, t.arrays())
    for name in ("qalgebra.qmul", "accel.qpow_formula", "koszul.spectrum_scan",
                 "qtopology.is_q_spiraling"):
        assert summary[name]["calls"] >= 1, name
    assert t.counts["koszul.spectrum_scan.n4.points"] == 5


def test_pair_route_products_still_record_a_kernel_span(monkeypatch):
    # the product of two diagonal tables scatters term pairs inside
    # _accel.qmul_full, the attribute the tracer wraps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    diagonal = QSeries(0.5, np.diag(np.arange(1.0, 34.0)))
    scatter, calls = _accel._scatter_pairs, []

    def counted(*args):
        calls.append(1)
        return scatter(*args)

    monkeypatch.setattr(_accel, "_scatter_pairs", counted)
    t = tracer.Tracer()
    tracer.install(t)
    try:
        qa.qmul(diagonal, diagonal)
    finally:
        t.pause()
    assert calls
    summary = tracer.summarize(t.names, t.arrays())
    assert summary["accel.qmul_full"]["calls"] == 1
    assert t.counts["accel.qmul_full.cells_computed"] == 65 * 65


def test_dense_products_record_only_the_box(monkeypatch):
    # a dense D = 32 product runs the column route, which forms only the
    # 33 x 33 box it keeps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    rng = np.random.default_rng(3)
    f, g = (QSeries(0.5 + 0.25j, rng.standard_normal((33, 33))) for _ in range(2))
    t = tracer.Tracer()
    tracer.install(t)
    try:
        assert qa.qmul(f, g).lossy
    finally:
        t.pause()
    assert t.counts["accel.qmul_full.cells_computed"] == 33 * 33
