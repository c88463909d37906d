"""Two commuting angular realizations: brackets, invariant, reductions.

Every identity here has an exact route (normalized operator difference is
the zero operator) plus, where structure alone could mislead, a sampled
route through the evaluation battery.
"""
import pytest

from shapeinv import su2
from shapeinv.opalg import DiffOp, OpTerm, commutator, fourier_reduce
from shapeinv.symx import Const, Mul
from shapeinv.verify import SamplePlan, check_op_zero


@pytest.fixture(scope="module")
def gens():
    return su2.build_raw_generators()


@pytest.fixture(scope="module")
def plan():
    return SamplePlan(seed=17, count=40)


def test_bracket_table_structural(gens):
    residuals = su2.commutator_residuals(gens)
    assert len(residuals) == 15
    for label, res, _refs in residuals:
        assert res.normalized().is_zero(), label


def test_bracket_table_sampled(gens, plan):
    for label, res, refs in su2.commutator_residuals(gens):
        rep = check_op_zero(res, plan, reference_ops=refs, tol=1e-10,
                            name=label)
        assert rep.passed, str(rep)


def test_left_and_right_invariants_agree(gens):
    left = su2.quadratic(gens).normalized()
    right = su2.quadratic_right(gens).normalized()
    assert left.same_operator(right)


def test_invariant_closed_form(gens, plan):
    built = su2.casimir(gens).normalized()
    closed = su2.casimir_reference().normalized()
    assert built.same_operator(closed)
    assert check_op_zero(built - closed, plan, reference_ops=(built, closed),
                         tol=1e-12).passed


def test_invariant_is_four_times_quadratic(gens):
    four_quad = (4 * su2.quadratic(gens)).normalized()
    assert four_quad.same_operator(su2.casimir(gens).normalized())


def test_lattice_reduction_of_invariant(gens):
    red = fourier_reduce(su2.casimir(gens).normalized(), "q")
    assert red.normalized().same_operator(su2.casimir_reduced_reference())


def test_reduced_generators_match_closed_forms():
    gs = su2.build_reduced_generators()
    for name in ("Lp", "Lm", "L3", "Rp", "Rm", "R3"):
        got = getattr(gs, name)
        assert got.same_operator(su2.reduced_ladder_reference(name)), name


def test_reduced_bracket_closure():
    # the lattice reduction is a homomorphism: brackets survive it
    gs = su2.build_reduced_generators()
    twoL3 = (2 * gs.L3).normalized()
    assert commutator(gs.Lp, gs.Lm).normalized().same_operator(twoL3)
    assert commutator(gs.Lp, gs.Rm).normalized().is_zero()


def test_weight_similarity_single_angle():
    ref = su2.weighted_reduced_reference()
    conj = su2.conjugate(su2.casimir_reduced_reference(), su2.weight_psi())
    assert conj.normalized().same_operator(ref.normalized())


def test_schrodinger_form_offset_vanishes():
    bundle = su2.build_Hq(SamplePlan(seed=11, count=60))
    assert bundle.offset.passed
    assert abs(bundle.offset.data["value"]) <= 1e-12
    assert bundle.reference.same_operator(bundle.derived.normalized())


def test_schrodinger_form_potential_structure():
    # multiplication part carries (q^2 - 1/4)/(sin psi sin theta)^2 - 3/4
    ref = su2.hq_reference()
    text = ref.render()
    assert "q^2" in text and "sin(psi)^(-2)" in text


def test_primed_generators_resolved(plan):
    gs = su2.build_primed_generators()
    ref = su2.primed_reference()
    for name in ("Lp", "Lm", "Rp", "Rm"):
        diff = (getattr(gs, name) - getattr(ref, name)).normalized()
        assert diff.is_zero(), name


def uniform_shift_reading(name: str) -> DiffOp:
    """The other reading of the stated corrections: each generator's scalar
    correction carries the forward shift -1, whatever its own shift."""
    base = su2.reduced_ladder_reference(name)
    corr = (getattr(su2.primed_reference(), name) - base).normalized()
    moved = DiffOp(tuple(OpTerm(t.coeff, t.derivs, -1) for t in corr.terms),
                   "q")
    return (base + moved).normalized()


def test_primed_generators_negative_control():
    # the uniform-forward-shift reading only disturbs the two raising
    # corrections; the lowering ones coincide in both conventions
    gs = su2.build_primed_generators()
    matches = {
        n: (getattr(gs, n) - uniform_shift_reading(n)).normalized().is_zero()
        for n in ("Lp", "Lm", "Rp", "Rm")}
    assert matches == {"Lp": False, "Rp": False, "Lm": True, "Rm": True}


def test_casimir_eigenvalue_on_weight_vectors(plan):
    # L3 carries +-1 weights on e^{+-i q phi}-type functions through the
    # reduction; spot-check the reduced invariant on a monomial family
    q = 2
    red = su2.casimir_reduced_reference()
    from shapeinv.ladders2d import QNum2D, chi_reduced
    qn = QNum2D(4, q, 2)
    lam = 4 * qn.eigenvalue()
    from shapeinv.opalg import apply_canonical
    from shapeinv.symx import Add, canonical, is_zero_expr
    chi = chi_reduced(qn)
    res = canonical(Add(apply_canonical(red.subs_param(q), chi),
                        Mul(Const(-lam), chi)))
    assert is_zero_expr(res)
