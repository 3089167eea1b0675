"""File formats and deterministic report writers.

All structured inputs are JSON:

* series:        ``{"q": [re, im], "trunc": D, "lossy": false,
                    "terms": [{"i": .., "k": .., "re": .., "im": ..}, ..]}``
                 (``lossy`` is optional on input and reads as ``false``)
* function rep:  ``{"q": [re, im], "r_x": .., "r_y": ..,
                    "f_list": [[[re, im], ..], ..]}``
* disk union:    ``[{"re": .., "im": .., "radius": ..}, ..]``
* point list:    ``[[re, im], ..]``
* matrix:        ``{"n": N, "entries": [[[re, im], ..], ..]}``

Floats serialize through ``repr`` (shortest round-trip form, at most 17
significant digits), so write -> read is bit-exact and identical runs
produce byte-identical files.  CSV reports use ``\n`` line endings
unconditionally.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InputFormatError

# The readers import the types they build, so that reading a series
# loads no operator or topology layer.
if TYPE_CHECKING:
    from .holo import HoloSeries
    from .opcalc import QFunctionRep
    from .qalgebra import QSeries
    from .qtopology import DiskUnion

__all__ = [
    "fmt",
    "qseries_to_payload",
    "qseries_from_payload",
    "qfunction_to_payload",
    "qfunction_from_payload",
    "diskunion_to_payload",
    "diskunion_from_payload",
    "points_from_payload",
    "matrix_to_payload",
    "dump_json",
    "load_json",
    "write_csv",
]


def fmt(x: float) -> str:
    """Shortest decimal form that round-trips the double exactly."""
    return repr(float(x))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputFormatError(message)


def _finite_float(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the double range
        raise InputFormatError(
            f"{what} must be finite, got an integer too large for a double"
        ) from None
    _require(math.isfinite(out), f"{what} must be finite, got {value!r}")
    return out


def _complex_pair(value, what: str) -> complex:
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{what} must be a [re, im] pair, got {value!r}")
    return complex(_finite_float(value[0], what), _finite_float(value[1], what))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def qseries_to_payload(f: QSeries) -> dict:
    return {
        "q": [f.q.real, f.q.imag],
        "trunc": f.trunc_degree,
        "lossy": f.lossy,
        "terms": [
            {"i": i, "k": k, "re": c.real, "im": c.imag} for i, k, c in f.terms()
        ],
    }


def _is_index(value) -> bool:
    """A nonnegative ``int``; JSON ``true``/``false`` are not degrees."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked_term(rec, trunc: int) -> tuple[int, int, float, float]:
    """``(i, k, re, im)`` of one series term, or the first failing check's error."""
    _require(isinstance(rec, dict), f"term must be an object, got {rec!r}")
    for key in ("i", "k", "re", "im"):
        _require(key in rec, f"term missing field {key!r}")
    i, k = rec["i"], rec["k"]
    _require(_is_index(i) and _is_index(k),
             f"term degrees must be nonnegative integers, got ({i!r}, {k!r})")
    _require(i <= trunc and k <= trunc,
             f"term ({i}, {k}) exceeds truncation degree {trunc}")
    return (i, k, _finite_float(rec["re"], "term re"),
            _finite_float(rec["im"], "term im"))


def qseries_from_payload(payload) -> QSeries:
    from .qalgebra import QSeries

    _require(isinstance(payload, dict), "series payload must be an object")
    for key in ("q", "trunc", "terms"):
        _require(key in payload, f"series payload missing field {key!r}")
    q = _complex_pair(payload["q"], "q")
    _require(q != 0, "q must be nonzero")
    lossy = payload.get("lossy", False)
    _require(isinstance(lossy, bool), f"lossy must be true or false, got {lossy!r}")
    trunc = payload["trunc"]
    _require(_is_index(trunc), f"trunc must be a nonnegative integer, got {trunc!r}")
    terms = payload["terms"]
    _require(isinstance(terms, list), "terms must be a list")
    ii, kk, values = [], [], []
    isfinite = math.isfinite
    for rec in terms:
        # A well-formed term passes on exact types alone; anything else
        # goes through _checked_term, which accepts it or names the
        # first check it fails.
        try:
            i, k, re, im = rec["i"], rec["k"], rec["re"], rec["im"]
            ok = (type(rec) is dict and type(i) is int and type(k) is int
                  and 0 <= i <= trunc and 0 <= k <= trunc
                  and type(re) is float and type(im) is float
                  and isfinite(re) and isfinite(im))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            i, k, re, im = _checked_term(rec, trunc)
        ii.append(i)
        kk.append(k)
        values.append(complex(re, im))
    table = np.zeros((trunc + 1, trunc + 1), dtype=np.complex128)
    # unbuffered and in term order: repeated terms add up as they are listed
    np.add.at(table, (np.asarray(ii, dtype=np.intp), np.asarray(kk, dtype=np.intp)),
              np.asarray(values, dtype=np.complex128))
    return QSeries(q, table, lossy=lossy)


# ---------------------------------------------------------------------------
# function representations
# ---------------------------------------------------------------------------


def _holo_to_pairs(f: HoloSeries) -> list[list[float]]:
    return [[c.real, c.imag] for c in f.coeffs]


def _holo_from_pairs(pairs, what: str) -> HoloSeries:
    from .holo import HoloSeries

    _require(isinstance(pairs, list) and len(pairs) >= 1,
             f"{what} must be a nonempty list of [re, im] pairs")
    return HoloSeries([_complex_pair(p, what) for p in pairs])


def qfunction_to_payload(f: QFunctionRep) -> dict:
    return {
        "q": [f.q.real, f.q.imag],
        "r_x": f.r_x,
        "r_y": f.r_y,
        "f_list": [_holo_to_pairs(fn) for fn in f.f_list],
    }


def qfunction_from_payload(payload) -> QFunctionRep:
    from .opcalc import QFunctionRep

    _require(isinstance(payload, dict), "function payload must be an object")
    for key in ("q", "r_x", "r_y", "f_list"):
        _require(key in payload, f"function payload missing field {key!r}")
    q = _complex_pair(payload["q"], "q")
    _require(q != 0, "q must be nonzero")
    r_x = _finite_float(payload["r_x"], "r_x")
    r_y = _finite_float(payload["r_y"], "r_y")
    _require(r_x > 0 and r_y > 0, "domain radii must be positive")
    flist = payload["f_list"]
    _require(isinstance(flist, list) and len(flist) >= 1,
             "f_list must be a nonempty list")
    series = tuple(_holo_from_pairs(p, f"f_list[{n}]") for n, p in enumerate(flist))
    return QFunctionRep(q, series, r_x, r_y)


# ---------------------------------------------------------------------------
# disk unions and point lists
# ---------------------------------------------------------------------------


def diskunion_to_payload(du: DiskUnion) -> list:
    return [
        {"re": d.center.real, "im": d.center.imag, "radius": d.radius}
        for d in du.disks
    ]


def diskunion_from_payload(payload) -> DiskUnion:
    from .qtopology import Disk, DiskUnion

    _require(isinstance(payload, list), "disk union payload must be a list")
    disks = []
    for rec in payload:
        _require(isinstance(rec, dict), f"disk must be an object, got {rec!r}")
        for key in ("re", "im", "radius"):
            _require(key in rec, f"disk missing field {key!r}")
        radius = _finite_float(rec["radius"], "disk radius")
        _require(radius > 0, f"disk radius must be positive, got {radius}")
        disks.append(
            Disk(complex(_finite_float(rec["re"], "disk re"),
                         _finite_float(rec["im"], "disk im")), radius)
        )
    return DiskUnion(disks)


def points_from_payload(payload) -> list[complex]:
    _require(isinstance(payload, list), "point list payload must be a list")
    return [_complex_pair(p, "point") for p in payload]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "n": int(m.shape[0]),
        "entries": [[[c.real, c.imag] for c in row] for row in m],
    }


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------


def dump_json(payload, fp) -> None:
    # json already renders floats via repr, the exact round-trip form.
    json.dump(payload, fp, indent=1)
    fp.write("\n")


def load_json(fp):
    try:
        return json.load(fp)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise InputFormatError(f"invalid JSON: {exc}") from exc


def write_csv(fp, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a report with stable float formatting and LF endings."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [fmt(v) if isinstance(v, float) else v for v in row]
        )
