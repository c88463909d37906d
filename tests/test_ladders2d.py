"""Two-angle eigenfunctions, ladder coefficients, and pair scalars.

The brute-force weight-pair enumeration is the oracle for degeneracies;
measured one-step ratios are the oracle for the closed coefficient
formulas (including the label assignment the transcription gets wrong);
chain reconstructions pin the overall normalization to ratio one.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import ladders2d as ld, lattice
from shapeinv.ladders2d import QNum2D
from shapeinv.opalg import DiffOp, OpTerm, apply_canonical
from shapeinv.rationals import GaussRat
from shapeinv.symx import (
    Add, Const, Cos, Expr, IMAG, Mul, PSI, Sin, Sym, THETA,
    canonical, cot, csc, is_zero_expr,
)
from shapeinv.verify import TOL_EIGEN, SamplePlan


PLAN = SamplePlan(seed=23, count=24)


# -- label validation --------------------------------------------------------

@pytest.mark.parametrize("twol,q,m,msg", [
    (-1, 0, 0, "q"),
    (2, 3, 0, "|q| <= 2"),
    (2, 1, 3, "|m| <= 1"),
    (2, 0, 1, "parity"),
    (3, 1, 1, "parity"),
])
def test_invalid_labels_rejected(twol, q, m, msg):
    with pytest.raises(ValueError, match="quantum numbers out of range"):
        QNum2D(twol, q, m)


def test_eigenvalue_is_level_times_level_plus_one():
    assert QNum2D(2, 0, 0).eigenvalue() == Fraction(2)       # l=1
    assert QNum2D(3, 1, 0).eigenvalue() == Fraction(15, 4)   # l=3/2
    assert QNum2D(6, 2, 0).eigenvalue() == Fraction(12)      # l=3


def test_degeneracy_matches_enumeration():
    for twol in range(0, 7):
        enum = ld.degeneracy_enumeration(twol)
        for q in range(-twol, twol + 1):
            assert sorted(ld.degeneracy(twol, q)) == sorted(enum[q]), (twol, q)
            assert len(ld.degeneracy(twol, q)) == twol + 1 - abs(q)


def test_valid_states_consistent_with_degeneracy():
    for twol in (0, 1, 2, 3, 4):
        states = list(ld.valid_states(twol))
        assert len(states) == (twol + 1) ** 2
        assert len(set(states)) == len(states)


# -- eigen equations ---------------------------------------------------------

@pytest.mark.parametrize("twol", [0, 1, 2, 3])
def test_eigen_relations_whole_level(twol):
    for qn in ld.valid_states(twol):
        for rep in ld.verify_eigen(qn, PLAN, TOL_EIGEN):
            assert rep.passed, str(rep)


def test_axis_weights_are_half_sums():
    qn = QNum2D(4, 2, 2)
    chi = ld.chi_reduced(qn)
    res = canonical(Add(
        apply_canonical(ld.step_op("L3", qn.q), chi),
        Mul(Const(Fraction(-(qn.m + qn.q), 2)), chi)))
    assert is_zero_expr(res)


def test_annihilation_at_the_edges():
    """Each edge word's coefficient vanishes, and the state after its first
    zero letter is the zero function, decided structurally."""
    qn = QNum2D(3, 3, 0)  # q at its maximum, m at its maximum for that q
    words = ld.annihilation_ops(qn)
    assert words, "edge state must expose annihilating words"
    seed, path = ld._LATTICE.path(qn)
    for word in words.values():
        stop, target, coeff_sq = lattice.reach(ld._MOVES, qn, word)
        assert (target, coeff_sq) == (None, 0), word
        before = lattice.walk(ld._LATTICE, seed, path + word[:stop - 1])
        move = ld._MOVES[word[stop - 1]]
        assert is_zero_expr(apply_canonical(move.op(before.label),
                                            before.state)), word


# -- ladder actions and coefficients ----------------------------------------

@pytest.mark.parametrize("twol", [1, 2, 3])
def test_ladder_actions_whole_level(twol):
    rep = ld.verify_ladder_actions(twol, PLAN, TOL_EIGEN)
    assert rep.passed, str(rep)
    assert rep.data["steps_checked"] > 0
    # the as-stated A-label assignment deviates measurably: the swap is real
    if twol >= 2:
        assert rep.data["reference_label_max_deviation"] > 1e-2


def test_ladder_actions_look_up_the_step_constructors(monkeypatch):
    """The step table reaches the module's constructors at call time, so a
    wrapper bound on the module (a counter, a tracer) sees every call."""
    calls = []
    original = ld.step_op

    def counting(name, label):
        if name == "Rp":
            calls.append(label)
        return original(name, label)

    monkeypatch.setattr(ld, "step_op", counting)
    rep = ld.verify_ladder_actions(2, SamplePlan(seed=3, count=6), TOL_EIGEN)
    assert rep.passed, str(rep)
    assert len(calls) == sum(1 for _ in ld.valid_states(2))


def test_ladder_actions_name_an_edge_that_is_worst(monkeypatch):
    """An edge whose function fails to vanish is the aggregate's worst member:
    the report names it and carries its residual."""
    plan = SamplePlan(seed=3, count=6)
    clean = ld.verify_ladder_actions(2, plan, TOL_EIGEN)
    real = lattice.check_zero
    edges = []

    def leaky(f, plan, reference, tol, name):
        edges.append(name)
        if len(edges) == 1:  # the first edge keeps 1e-3 of its source
            f = Add(f, Mul(Const(Fraction(1, 1000)), reference[0]))
        return real(f, plan, reference=reference, tol=tol, name=name)

    monkeypatch.setattr(lattice, "check_zero", leaky)
    rep = ld.verify_ladder_actions(2, plan, TOL_EIGEN)
    assert len(edges) == clean.data["edge_annihilations"] > 0
    assert rep.worst == edges[0] and not rep.passed
    assert rep.relative == pytest.approx(1e-3, rel=1e-6)
    assert rep.max_abs == rep.relative and rep.scale == 1.0
    assert (rep.notes, rep.data) == (clean.notes, clean.data)


def _transcribed_ladder(a_im: int, c_cot: int, c_im: int, mm) -> DiffOp:
    """Oracle: the one-step operators as once transcribed term by term,
    (i/2)( sin(th) d_psi + (a_im i + cos(th) cot(ps)) d_th
           + i mm (c_cot cot(th) + c_im i cot(ps)/sin(th)) )."""
    ihalf = Const(GaussRat(0, Fraction(1, 2)))
    mval = mm if isinstance(mm, Expr) else Const(mm)
    c_psi = Mul(ihalf, Sin(THETA))
    c_th = Mul(ihalf, Add(Const(GaussRat(0, Fraction(a_im))),
                          Mul(Cos(THETA), cot(PSI))))
    c_sc = Mul(ihalf, IMAG, mval,
               Add(Mul(Const(c_cot), cot(THETA)),
                   Mul(Const(GaussRat(0, Fraction(c_im))), cot(PSI), csc(THETA))))
    terms = (OpTerm(c_psi, (0, 1, 0, 0)), OpTerm(c_th, (1, 0, 0, 0)),
             OpTerm(c_sc, (0, 0, 0, 0)))
    return DiffOp(terms).normalized()


def test_one_step_operators_are_the_transcribed_ones():
    signs = {"Lm": (-1, -1, -1), "Rm": (+1, +1, -1),
             "Lp": (+1, -1, +1), "Rp": (-1, +1, +1)}
    s = Sym("s")
    for mm in [*range(-9, 10), s, Add(s, Const(-1))]:
        for name, (a_im, c_cot, c_im) in signs.items():
            got = ld.step_op(name, mm)
            want = _transcribed_ladder(a_im, c_cot, c_im, mm)
            assert got.param == want.param is None
            # Expr equality is equality of the whole tree
            assert [(t.derivs, t.shift, t.coeff) for t in got.terms] == \
                [(t.derivs, t.shift, t.coeff) for t in want.terms], (name, mm)


def test_reorder_identity_true_and_stated_forms():
    res = ld.reorder_identity_residuals()
    assert res["valid"].normalized().is_zero()
    assert not res["stated"].normalized().is_zero()
    assert ld.reorder_identity_holds()


def test_pair_scalar_measured_equals_closed():
    """The round trip m up and back, read from the measured table, is the
    square of the closed in-level scalar, exactly."""
    for twol in range(0, 7):
        for qn in ld.valid_states(twol):
            got = ld.pair_scalar_sq(qn, ld.M_ROUND_TRIP, False)
            assert got == ld.E_measured_closed(twol, qn.q, qn.m) ** 2, qn


def test_pair_scalar_printed_form_vanishes_degenerately():
    # the as-printed scalar gives 0 on a state where the measured one is 4
    qn = QNum2D(2, 0, 0)
    assert ld.pair_scalar_sq(qn, ld.M_ROUND_TRIP, True) == 0
    assert ld.pair_scalar_sq(qn, ld.M_ROUND_TRIP, False) == 16
    assert ld.E_measured_closed(2, 0, 0) == Fraction(4)


def test_norm_product_matches_closed_form():
    # the printed 4-factor product and the printed closed form agree
    # exactly wherever the raised target exists
    for twol in range(0, 7):
        for qn in ld.valid_states(twol):
            q, m = qn.q, qn.m
            if q + 2 > twol - abs(m):
                continue
            assert ld.pair_scalar_sq(qn, ld.Q_ROUND_TRIP, True) \
                == ld.N_closed(twol, q, m), qn


@pytest.mark.parametrize("qn", [
    QNum2D(2, 0, 0), QNum2D(3, 1, 2), QNum2D(4, 2, 0), QNum2D(4, 0, -2),
], ids=str)
def test_chain_reconstruction_ratio_is_one(qn):
    for rep in ld.reconstruct_chain_reports(qn, PLAN, TOL_EIGEN):
        assert rep.passed, str(rep)
        assert abs(rep.data["ratio"] - 1.0) <= 1e-9


# -- hypothesis: the label lattice ------------------------------------------

@st.composite
def _valid_qnums(draw):
    twol = draw(st.integers(0, 6))
    q = draw(st.integers(-twol, twol))
    top = twol - abs(q)
    m = draw(st.integers(-top, top).filter(lambda x: (x - top) % 2 == 0))
    return QNum2D(twol, q, m)


@settings(max_examples=80, deadline=None)
@given(_valid_qnums())
def test_lattice_membership_properties(qn):
    assert abs(qn.q) + abs(qn.m) <= qn.twol
    assert qn.eigenvalue() == Fraction(qn.twol * (qn.twol + 2), 4)
    assert qn in set(ld.valid_states(qn.twol))


@settings(max_examples=50, deadline=None)
@given(_valid_qnums())
def test_coefficients_square_to_pair_scalars(qn):
    # A+(q,m)^2 * B+(q,m)^2 style products stay consistent with the
    # measured in-level scalar at every lattice site
    val = ld.E_measured_closed(qn.twol, qn.q, qn.m)
    d = qn.m - qn.q
    s = qn.m + qn.q
    want = Fraction((qn.twol - d) * (qn.twol + d + 2)
                    * (qn.twol - s) * (qn.twol + s + 2), 16)
    assert val == want
