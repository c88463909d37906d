"""`verify.check_eigen` against the eigen residuals it replaced.

Each oracle below is the residual construction that `ladders2d`, `osc3d` and
the suite's frequency-blind fault control wrote out by hand before they
shared `check_eigen`.  The reports must agree field by field, bits included:
both sides sample the residual tree as it was built, so a `check_eigen` that
builds it in another order, or canonicalizes it, moves the last bits.  The
3-D pair relations left `check_eigen` for the lattice's round-trip words, so
their oracle is held to the same verdicts and rounding-level residuals.
"""
from fractions import Fraction

import pytest

from shapeinv import ladders2d, osc3d, su2
from shapeinv.osc3d import QNum3D
from shapeinv.symx import Add, Const, Mul
from shapeinv.verify import SamplePlan, check_eigen, check_zero

from oracles import state_normalized

PLAN = SamplePlan(seed=43, count=8)
TOL = 1e-8


def _oracle_eigen2d(qn, plan, tol):
    lam = Const(qn.eigenvalue())
    chi = ladders2d.chi_reduced(qn)
    quad = Fraction(1, 4) * su2.casimir_reduced_reference().subs_param(qn.q)
    res = Add(quad.apply(chi), Mul(Const(-1), lam, chi))
    ref = Mul(lam, chi) if qn.twol else chi
    out = [check_zero(res, plan, reference=[ref], tol=tol,
                      name=f"quadratic eigenvalue {qn}")]
    hq = Fraction(1, 4) * su2.hq_reference().subs_param(qn.q)
    ct = ladders2d.chi_tilde(qn)
    res_t = Add(hq.apply(ct), Mul(Const(-1), lam, ct))
    ref_t = Mul(lam, ct) if qn.twol else ct
    out.append(check_zero(res_t, plan, reference=[ref_t], tol=tol,
                          name=f"weighted-form eigenvalue {qn}"))
    # the axis operators as built before `step_op` pinned them at_incoming
    for name, axis, val in (
            ("left-axis", "L3", Fraction(qn.m + qn.q, 2)),
            ("right-axis", "R3", Fraction(qn.m - qn.q, 2))):
        op = su2.reduced_ladder_reference(axis).subs_param(qn.q)
        res_a = Add(op.apply(chi), Mul(Const(-val), chi))
        out.append(check_zero(res_a, plan, reference=[chi], tol=tol,
                              name=f"{name} weight {qn}"))
    return out


def _oracle_eigen3d(qn, plan, closed, tol):
    ham = osc3d.build_Hm(qn.omega).at_incoming(qn.m)
    psi = osc3d.psi_closed(qn) if closed else osc3d.psi_ladder(qn)
    lam = Const(qn.energy())
    res = Add(ham.apply(psi), Mul(Const(-1), lam, psi))
    form = "closed" if closed else "ladder"
    return check_zero(res, plan, reference=[Mul(lam, psi)], tol=tol,
                      name=f"eigenvalue ({form}) {qn}")


def _oracle_pair_eigen(qn, plan, tol):
    w = qn.omega
    lam = osc3d.pair_energy(qn.n, qn.m)
    state = state_normalized(qn)
    s = osc3d.build_oscillators(w)
    pair_minus = (s.A2 @ s.A1d).normalized()   # A1d then A2: m -> m - 2
    pair_plus = (s.A2d @ s.A1).normalized()    # A1 then A2d: m -> m + 2
    up_down = (pair_plus @ pair_minus).at_incoming(qn.m)
    res = Add(up_down.apply(state), Mul(Const(-lam), state))
    ref = Mul(Const(lam), state) if lam else state
    out = [check_zero(res, plan, reference=[ref], tol=tol,
                      name=f"pair plus-after-minus {qn}")]
    if qn.m - 2 >= -qn.n:
        low = state_normalized(QNum3D(qn.n, qn.m - 2, qn.n3, qn.n4, w))
        down_up = (pair_minus @ pair_plus).at_incoming(qn.m - 2)
        res = Add(down_up.apply(low), Mul(Const(-lam), low))
        ref = Mul(Const(lam), low) if lam else low
        out.append(check_zero(res, plan, reference=[ref], tol=tol,
                              name=f"pair minus-after-plus {qn}"))
    return out


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.as_dict() == w.as_dict()


@pytest.mark.parametrize("twol", [0, 1, 2, 3])
def test_eigen2d_matches_open_coded_residuals(twol):
    for qn in ladders2d.valid_states(twol):
        _same(ladders2d.verify_eigen(qn, PLAN, tol=TOL),
              _oracle_eigen2d(qn, PLAN, TOL))


def _states3d(omega):
    return [QNum3D(n, m, n3, n4, omega)
            for n in range(3) for m in range(-n, n + 1, 2)
            for n3 in range(3 - n) for n4 in range(3 - n - n3)]


@pytest.mark.parametrize("omega", [Fraction(1), Fraction(2)])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "ladder"])
def test_eigen3d_matches_open_coded_residual(omega, closed):
    states = _states3d(omega)
    assert len(states) == 15
    _same([osc3d.verify_eigen(qn, PLAN, closed=closed, tol=TOL) for qn in states],
          [_oracle_eigen3d(qn, PLAN, closed, TOL) for qn in states])


@pytest.mark.parametrize("qn", [QNum3D(2, 0), QNum3D(3, 1), QNum3D(2, -2)],
                         ids=str)
def test_pair_eigen_matches_open_coded_residuals(qn):
    """The pair relations are round-trip words on the lattice now, measured
    letter by letter against the chain states: the verdicts are the open-coded
    residuals', and both residuals stay at rounding level."""
    got = osc3d.verify_pair_eigen(qn, PLAN, tol=TOL)
    want = _oracle_pair_eigen(qn, PLAN, TOL)
    assert [r.passed for r in got] == [r.passed for r in want] == \
        [True] * len(want)
    for g, w in zip(got, want):
        assert g.relative <= 1e-13 and w.relative <= 1e-13, (g, w)


def test_frequency_blind_fault_matches_open_coded_residual():
    w = Fraction(2)
    qn = QNum3D(0, 0, 2, 0, w)
    psi = osc3d.closed_sum(0, 0, 2, 0, w, phase=False, hermite_scaled=False)
    ham = osc3d.build_Hm(w).at_incoming(0)
    lam = Const(qn.energy())
    res = Add(ham.apply(psi), Mul(Const(-1), lam, psi))
    want = check_zero(res, PLAN, reference=[Mul(lam, psi)], tol=TOL,
                      name="frequency-blind eigencheck")
    got = check_eigen(ham, psi, qn.energy(), PLAN, TOL,
                      "frequency-blind eigencheck")
    _same([got], [want])
    assert not got.passed
