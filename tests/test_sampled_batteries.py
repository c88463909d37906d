"""The suite's sampled oscillator batteries against the wrappers they replace.

`suite` assembles every sampled operator battery from a list of (label,
residual, reference ops).  The oscillator brackets, the factorization, the
intertwining relations and the two oscillator fault controls used to go
through five wrappers in `osc3d`, each with its own battery loop.  Those
wrappers are kept here, as they were, as the oracle; each suite check must
give the same relative residual, pass flag and notes either way.
"""
from fractions import Fraction

import pytest

from shapeinv import osc3d, suite
from shapeinv.opalg import fourier_reduce
from shapeinv.symx import IMAG, Mul, Pow
from shapeinv.verify import TOL_OPERATOR, check_op_zero, worst_of

from oracles import failed, structural


# -- the replaced wrappers ------------------------------------------------------

def verify_canonical_commutators(plan, testfns=None, tol=1e-10):
    """Worst-case report over the 28 commutators of the reduced algebra."""
    reports = {label: check_op_zero(res, plan, reference_ops=refs, tol=tol,
                                    testfns=testfns, name=f"commutator {label}")
               for label, res, refs in osc3d.commutator_residuals()}
    failures = [label for label, rep in reports.items() if not rep.passed]
    return worst_of(reports.values(), tol, notes="; ".join(failures))


def verify_factorization(plan, drop_constant=False, testfns=None, tol=1e-10):
    """H equals w (A1d A1 + A2d A2 + a3d a3 + a4d a4 + 2) on the m-lattice,
    uniformly in m.  drop_constant removes the +2 (negative control)."""
    fact, ham = osc3d.factorization(True, 0 if drop_constant else 2)
    name = "ladder factorization (reduced)"
    if drop_constant:
        name += " [zero-point dropped]"
    return check_op_zero(fact - ham, plan, reference_ops=(fact, ham),
                         testfns=testfns, tol=tol, name=name)


def factorization_matches(reduced=True):
    """Structural form of the factorization identity."""
    fact, ham = osc3d.factorization(reduced, 2)
    return fact.same_operator(ham)


def verify_intertwining(plan, testfns=None, tol=1e-10):
    """Single report over the four intertwining relations (worst case)."""
    return worst_of([
        check_op_zero(res, plan, reference_ops=refs, tol=tol, testfns=testfns,
                      name=f"intertwining {name}")
        for name, res, refs in osc3d.intertwining_residuals()], tol)


def intertwining_fault_pattern(plan, testfns=None, tol=1e-10):
    """Pass pattern of the four relations when the first cartesian lowering
    operator has its gradient sign flipped (its adjoint left intact)."""
    _P, w = osc3d._P, osc3d.OMEGA
    pref = osc3d._sqrt_w_half(w)
    grad_scale = Mul(pref, Pow(w, Fraction(-1)))
    x1 = osc3d.cartesian_coords()[0]
    d1 = osc3d.cartesian_gradients()[0]
    a1_bad = (_P(Mul(pref, x1)) - (_P(grad_scale) @ d1)).normalized()
    cart = osc3d.cartesian_ladders()
    s = _P(osc3d._INV_SQRT2)
    i_ = _P(IMAG)
    A1_bad = fourier_reduce((s @ (a1_bad + (i_ @ cart.a2))).normalized(), "m")
    A2_bad = fourier_reduce((s @ (a1_bad - (i_ @ cart.a2))).normalized(), "m")
    faulty = osc3d.build_oscillators()._replace(A1=A1_bad, A2=A2_bad)
    out = []
    for name, res, refs in osc3d.intertwining_residuals(faulty):
        rep = check_op_zero(res, plan, reference_ops=refs, tol=tol,
                            testfns=testfns, name=f"faulted intertwining {name}")
        out.append(rep.passed)
    return out


# -- the suite checks as they called the wrappers ---------------------------------

def _light(cfg, label):
    return dict(plan=suite._plan(cfg, label), testfns=suite._light_battery("m"),
                tol=TOL_OPERATOR)


def old_osc_comm_sampled(cfg):
    return verify_canonical_commutators(**_light(cfg, "osc-comm"))


def old_factorization(cfg):
    ok = factorization_matches(reduced=True) and factorization_matches(reduced=False)
    rep = verify_factorization(**_light(cfg, "factor"))
    if not ok:
        return failed(rep, "structural factorization mismatch")
    return rep.note("structural match in both algebras, uniformly in the label")


def old_intertwining(cfg):
    rep = verify_intertwining(**_light(cfg, "intertwine"))
    if all(res.is_zero() for _, res, _ in osc3d.intertwining_residuals()):
        return rep.note("all four relations vanish structurally")
    return failed(rep, "a relation failed to vanish structurally")


def old_zero_point(cfg):
    rep = verify_factorization(drop_constant=True, **_light(cfg, "flt-zp"))
    return structural(
        not rep.passed,
        notes=f"factorization without the +2 fails (relative {rep.relative:.3e})",
        name="fault: zero-point constant dropped")


def old_gradient_sign(cfg):
    pattern = intertwining_fault_pattern(**_light(cfg, "flt-grad"))
    assert pattern == [True, True, False, False]
    return structural(
        True,
        notes=f"exactly the two lowering intertwinings break (pattern {pattern})",
        name="fault: lowering-gradient sign flip")


PAIRS = [
    (old_osc_comm_sampled, suite._chk_osc_comm_sampled),
    (old_factorization, suite._chk_factorization),
    (old_intertwining, suite._chk_intertwining),
    (old_zero_point, suite._flt_zero_point),
    (old_gradient_sign, suite._flt_gradient_sign),
]


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_suite_batteries_match_the_replaced_wrappers(seed):
    cfg = suite.SuiteConfig(seed=seed)
    for old, new in PAIRS:
        want, got = old(cfg), new(cfg)
        assert (got.relative, got.passed, got.notes) == \
            (want.relative, want.passed, want.notes), new.__name__
