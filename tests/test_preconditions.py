"""Precondition raises across the layers, one row per guard."""

import math

import pytest

from qplane import opcalc as oc
from qplane import qalgebra as qa
from qplane import qtopology as qt
from qplane.errors import PreconditionError
from qplane.holo import HoloSeries
from qplane.qalgebra import QSeries

Q = 0.5
H = HoloSeries([0.0, 1.0])
PAIR = oc.model_pair(Q, 3)
XY = QSeries.monomial(Q, 3, 1, 1)
MIXED = oc.QFunctionRep(Q, (HoloSeries.zero(2), H), 2.0, 2.0)  # f = xy


@pytest.mark.parametrize("call, error, match", [
    (lambda: oc.QFunctionRep(0, (H,), 1.0, 1.0), PreconditionError, "q must be nonzero"),
    (lambda: oc.QFunctionRep(Q, (), 1.0, 1.0), PreconditionError, "at least the n = 0"),
    (lambda: oc.QFunctionRep(Q, (H,), 0.0, 1.0), PreconditionError, "radii must be positive"),
    (lambda: oc.QFunctionRep(Q, (H,), 1.0, -1.0), PreconditionError, "radii must be positive"),
    (lambda: oc.calc_qseries(QSeries.one(0.3, 2), PAIR), PreconditionError, "q mismatch"),
    # q^2 overflows; no RuntimeWarning comes ahead of the refusal
    (lambda: oc.model_pair(1e200, 3), PreconditionError, "matrix entries must be finite"),
    (lambda: oc.model_pair(0, 3), PreconditionError, "q must be nonzero"),
    (lambda: oc.resolvent_twist_residual(PAIR, 1, -1, 0, 0.5), PreconditionError,
     "exponents must be nonnegative"),
    (lambda: oc.radical_decay_check(MIXED, PAIR, 0), PreconditionError, "s_max must be >= 1"),
    (lambda: qa.decay_profile(XY, 1.0, 0), PreconditionError, "s_max must be >= 1"),
    (lambda: qa.log_shifted(0.0, XY), PreconditionError, "log offset must be positive"),
    (lambda: qt.spiral_neighborhood(1.0, 0.0, 0.1, Q), PreconditionError,
     "radii must be positive"),
    (lambda: qt.spiral_neighborhood(1.0, 0.3, -0.1, Q), PreconditionError,
     "radii must be positive"),
    (lambda: qt.spiral_neighborhood(math.inf, 0.3, 0.1, Q), PreconditionError,
     "orbit point must be finite"),
    (lambda: qt.spiral_neighborhood(complex(1.0, math.nan), 0.3, 0.1, Q), PreconditionError,
     "orbit point must be finite"),
    (lambda: qt.spiral_neighborhood(1.0, math.inf, 0.1, Q), PreconditionError,
     "radii must be finite"),
    (lambda: qt.spiral_neighborhood(1.0, 0.3, math.inf, Q), PreconditionError,
     "radii must be finite"),
    (lambda: qt.point_q_closure(1.0, -1, Q), PreconditionError, "k_max must be >= 0"),
    (lambda: H.norm(math.inf), PreconditionError, "norm radius must be positive and finite"),
    (lambda: qa.seminorm(QSeries.one(Q, 2), math.inf), PreconditionError,
     "seminorm radius must be positive and finite"),
    (lambda: qa.p_seminorm(QSeries.one(Q, 2), math.inf, 1.0), PreconditionError,
     "seminorm radii must be positive and finite"),
    (lambda: qa.p_seminorm(QSeries.one(Q, 2), 1.0, math.inf), PreconditionError,
     "seminorm radii must be positive and finite"),
    (lambda: qt.Disk(1.0, 0.0), ValueError, "disk radius must be positive"),
    (lambda: QSeries.one(Q, 2) - QSeries.one(Q, 3), PreconditionError, "truncation mismatch"),
    (lambda: QSeries.one(Q, 2) * None, TypeError, "unsupported operand"),
    (lambda: None * QSeries.one(Q, 2), TypeError, "unsupported operand"),
    (lambda: H - 1, TypeError, "unsupported operand"),
    (lambda: oc.OperatorPair(PAIR.t[:2], PAIR.s[:2], Q), PreconditionError,
     r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: oc.OperatorPair(PAIR.t, PAIR.s[:2, :2], Q), PreconditionError,
     r"dimension mismatch: \(3, 3\) vs \(2, 2\)"),
    (lambda: qa.qpow(XY, 2, "bogus"), ValueError, "unknown method 'bogus'"),
], ids=[
    "qfunction-q-zero", "qfunction-empty-f-list", "qfunction-r-x-zero",
    "qfunction-r-y-negative", "calc-qseries-q-mismatch", "model-pair-q-overflow",
    "model-pair-q-zero", "resolvent-negative-exponent", "decay-check-s-max-zero",
    "decay-profile-s-max-zero", "log-shifted-c-zero", "spiral-eps-zero",
    "spiral-delta-negative", "spiral-lambda-inf", "spiral-lambda-nan", "spiral-eps-inf",
    "spiral-delta-inf", "closure-k-max-negative", "holo-norm-rho-inf",
    "seminorm-rho-inf", "p-seminorm-rho-x-inf", "p-seminorm-rho-y-inf", "disk-radius-zero",
    "qseries-sub-mismatch", "qseries-mul-non-number", "qseries-rmul-non-number",
    "holo-sub-non-series", "pair-not-square", "pair-shape-mismatch", "qpow-unknown-method",
])
def test_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
