"""Rotation-algebra sector on the group manifold.

Builds the left- and right-invariant first-order vector fields in the angles
(theta, psi, phi), their quadratic invariant operator, the Fourier reduction
of the periodic angle phi to an integer parameter q, and the similarity
transformation by (sin(psi) sin(theta))^(1/2) that recasts the reduced
invariant as a Schrodinger-type operator H_q on the two remaining angles.

Every closed form asserted here is constructed twice: once by explicit
operator algebra (compose/commute/reduce/conjugate) and once as a
transcribed reference expression; the two routes are compared structurally
and by randomized evaluation.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rationals import GaussRat
from .symx import (
    Add,
    Const,
    Cos,
    Exp,
    Expr,
    IMAG,
    Mul,
    PHI,
    PSI,
    Pow,
    Sin,
    Sym,
    THETA,
    canonical,
    cot,
    csc,
    memo,
)
from .opalg import DiffOp, OpTerm, commutator, fourier_reduce
from .verify import IdentityReport, SamplePlan, measure_constant

_I2 = Const(GaussRat(0, Fraction(1, 2)))          # i/2
_HALF = Fraction(1, 2)
_Q = Sym("q")

_Dpsi = DiffOp.partial("psi")
_Dth = DiffOp.partial("theta")
_Dphi = DiffOp.partial("phi")
_P = DiffOp.from_expr


class GeneratorSet(NamedTuple):
    """The six first-order generators of one realization of the algebra:
    the raw angle operators in all three angles, their phi Fourier reduction
    (parameter q, shift operators), or the reduction conjugated by the
    angular weight (Schrodinger gauge)."""
    Lp: DiffOp
    Lm: DiffOp
    L3: DiffOp
    Rp: DiffOp
    Rm: DiffOp
    R3: DiffOp

    def pairs(self):
        return list(zip(self._fields, self))


def _ladder_gen(exp_sign: int, a_im: int, c_cot: int, c_im: int) -> DiffOp:
    # (i/2) e^{exp_sign i phi} [ sin(th) d_psi + (a_im i + cos(th) cot(ps)) d_th
    #   + (c_cot cot(th) + c_im i cot(ps)/sin(th)) d_phi ]
    pref = Mul(_I2, Exp(Mul(Const(exp_sign), IMAG, PHI)))
    c_psi = Mul(pref, Sin(THETA))
    c_th = Mul(pref, Add(Const(GaussRat(0, Fraction(a_im))),
                         Mul(Cos(THETA), cot(PSI))))
    c_ph = Mul(pref, Add(Mul(Const(c_cot), cot(THETA)),
                         Mul(Const(GaussRat(0, Fraction(c_im))), cot(PSI), csc(THETA))))
    return (_P(c_psi) @ _Dpsi + _P(c_th) @ _Dth + _P(c_ph) @ _Dphi).normalized()


def _axis_gen(phi_sign: int) -> DiffOp:
    # (i/2) ( -cos(th) d_psi + sin(th) cot(ps) d_th + phi_sign d_phi )
    op = (_P(Mul(_I2, Const(-1), Cos(THETA))) @ _Dpsi
          + _P(Mul(_I2, Sin(THETA), cot(PSI))) @ _Dth
          + _P(Mul(_I2, Const(phi_sign))) @ _Dphi)
    return op.normalized()


@memo({})
def build_raw_generators() -> GeneratorSet:
    """Left/right invariant vector fields in the three angles."""
    return GeneratorSet(
        Lp=_ladder_gen(+1, +1, -1, +1),
        Lm=_ladder_gen(-1, -1, -1, -1),
        L3=_axis_gen(-1),
        Rp=_ladder_gen(+1, -1, +1, +1),
        Rm=_ladder_gen(-1, +1, +1, -1),
        R3=_axis_gen(+1),
    )


# ---------------------------------------------------------------------------
# Structure relations
# ---------------------------------------------------------------------------

def commutator_residuals(gs: GeneratorSet) -> list:
    """All fifteen bracket relations as residual operators.

    Returns (label, residual DiffOp, reference ops for scaling).  Every
    residual must be the zero operator; the left sector closes with +2 L3,
    the right sector with -2 R3, and the sectors commute.
    """
    Lp, Lm, L3, Rp, Rm, R3 = gs
    out = [
        ("[Lp,Lm]=2L3", commutator(Lp, Lm) - 2 * L3, (Lp, Lm, L3)),
        ("[L3,Lp]=+Lp", commutator(L3, Lp) - Lp, (L3, Lp)),
        ("[L3,Lm]=-Lm", commutator(L3, Lm) + Lm, (L3, Lm)),
        ("[Rp,Rm]=-2R3", commutator(Rp, Rm) + 2 * R3, (Rp, Rm, R3)),
        ("[R3,Rp]=-Rp", commutator(R3, Rp) + Rp, (R3, Rp)),
        ("[R3,Rm]=+Rm", commutator(R3, Rm) - Rm, (R3, Rm)),
    ]
    lefts = [("Lp", Lp), ("Lm", Lm), ("L3", L3)]
    rights = [("Rp", Rp), ("Rm", Rm), ("R3", R3)]
    for ln, lop in lefts:
        for rn, rop in rights:
            out.append((f"[{ln},{rn}]=0", commutator(lop, rop), (lop, rop)))
    return out


def quadratic(gs: GeneratorSet) -> DiffOp:
    """(1/2)(Lp Lm + Lm Lp) + L3^2 -- eigenvalue l(l+1) on the eigenfamily."""
    half = Fraction(1, 2)
    return (half * (gs.Lp @ gs.Lm + gs.Lm @ gs.Lp) + gs.L3 @ gs.L3).normalized()


def quadratic_right(gs: GeneratorSet) -> DiffOp:
    """Same invariant built from the right sector; must equal quadratic()."""
    half = Fraction(1, 2)
    return (half * (gs.Rp @ gs.Rm + gs.Rm @ gs.Rp) + gs.R3 @ gs.R3).normalized()


def casimir(gs: GeneratorSet) -> DiffOp:
    """Quadratic invariant at the reference normalization (4x the quadratic).

    The reference closed form drops an overall 1/4 from the quadratic; all
    structural comparisons against closed forms use this normalization, while
    eigenvalue statements l(l+1) hold for quadratic() = casimir()/4.
    """
    return (4 * quadratic(gs)).normalized()


@memo({})
def casimir_reference() -> DiffOp:
    """Closed second-order form of the invariant in the three angles."""
    s2p_inv = Pow(Sin(PSI), Fraction(-2))
    op = (-1 * (_P(s2p_inv) @ _Dpsi @ _P(Pow(Sin(PSI), 2)) @ _Dpsi)
          - (_P(s2p_inv) @ (_P(csc(THETA)) @ _Dth @ _P(Sin(THETA)) @ _Dth
                            + _P(Pow(Sin(THETA), Fraction(-2))) @ _Dphi @ _Dphi)))
    return op.normalized()


# ---------------------------------------------------------------------------
# Fourier reduction and similarity transformation
# ---------------------------------------------------------------------------

@memo({})
def build_reduced_generators() -> GeneratorSet:
    gs = build_raw_generators()
    return GeneratorSet(*(fourier_reduce(op, "q") for op in gs))


@memo({})
def reduced_ladder_reference(which: str) -> DiffOp:
    """Closed forms of the reduced ladder generators (shift operators).

    which is one of 'Lp', 'Lm', 'Rp', 'Rm', 'L3', 'R3'.  Raising carries the
    backward lattice shift (operand evaluated at q-1), lowering the forward
    one, and the phi-derivative slot becomes i(q -+ 1) times the old phi
    coefficient.
    """
    q = _Q
    if which in ("L3", "R3"):
        sgn = -1 if which == "L3" else +1
        expr_op = (_P(Mul(_I2, Const(-1), Cos(THETA)), "q") @ _Dpsi
                   + _P(Mul(_I2, Sin(THETA), cot(PSI)), "q") @ _Dth
                   + _P(Mul(_I2, Mul(Const(GaussRat(0, Fraction(sgn))), q)), "q"))
        return expr_op.normalized()
    a_im, c_cot, c_im = {
        "Lp": (+1, -1, +1), "Lm": (-1, -1, -1),
        "Rp": (-1, +1, +1), "Rm": (+1, +1, -1),
    }[which]
    shift = +1 if which.endswith("p") else -1
    lat = Add(q, Const(-1)) if shift == +1 else Add(q, Const(1))
    c_psi = Mul(_I2, Sin(THETA))
    c_th = Mul(_I2, Add(Const(GaussRat(0, Fraction(a_im))), Mul(Cos(THETA), cot(PSI))))
    c_ph = Mul(_I2, IMAG, lat,
               Add(Mul(Const(c_cot), cot(THETA)),
                   Mul(Const(GaussRat(0, Fraction(c_im))), cot(PSI), csc(THETA))))
    terms = (OpTerm(c_psi, (0, 1, 0, 0), shift),
             OpTerm(c_th, (1, 0, 0, 0), shift),
             OpTerm(c_ph, (0, 0, 0, 0), shift))
    return DiffOp(terms, "q")


@memo({})
def casimir_reduced_reference() -> DiffOp:
    """Closed form of the invariant after reduction: q^2 replaces -d_phi^2."""
    s2p_inv = Pow(Sin(PSI), Fraction(-2))
    q2 = Mul(Pow(_Q, 2), Pow(Sin(THETA), Fraction(-2)))
    op = (-1 * (_P(s2p_inv, "q") @ _Dpsi @ _P(Pow(Sin(PSI), 2)) @ _Dpsi)
          - (_P(s2p_inv, "q") @ (_P(csc(THETA)) @ _Dth @ _P(Sin(THETA)) @ _Dth
                                 - _P(q2, "q"))))
    return op.normalized()


def weight_psi() -> Expr:
    return Pow(Sin(PSI), _HALF)


def weight_full() -> Expr:
    return Mul(Pow(Sin(PSI), _HALF), Pow(Sin(THETA), _HALF))


def conjugate(op: DiffOp, w: Expr) -> DiffOp:
    """Similarity transform w . op . w^(-1).

    w must invert to a finite expression (a product of powers; sums are
    rejected by the canonicalizer).
    """
    w_inv = canonical(Pow(w, Fraction(-1)))
    return (_P(canonical(w), op.param) @ op @ _P(w_inv, op.param)).normalized()


@memo({})
def weighted_reduced_reference() -> DiffOp:
    """Reduced invariant conjugated by sin(psi)^(1/2): closed form."""
    sp_inv = Pow(Sin(PSI), Fraction(-1))
    s2p_inv = Pow(Sin(PSI), Fraction(-2))
    pot = Add(Mul(Const(Fraction(1, 4)), Pow(cot(PSI), 2)), Const(Fraction(-1, 2)))
    op = (-1 * (_P(sp_inv, "q") @ _Dpsi @ _P(Sin(PSI)) @ _Dpsi)
          - (_P(s2p_inv, "q") @ (_P(csc(THETA)) @ _Dth @ _P(Sin(THETA)) @ _Dth
                                 - _P(Mul(Pow(_Q, 2), Pow(Sin(THETA), Fraction(-2))), "q")))
          + _P(pot, "q"))
    return op.normalized()


@memo({})
def hq_reference() -> DiffOp:
    """Schrodinger-type closed form after the full angular weight.

    -(1/sin ps) d_ps sin(ps) d_ps - (1/sin^2 ps) d_th^2
      + (q^2 - 1/4)/(sin^2 ps sin^2 th) - 3/4
    """
    sp_inv = Pow(Sin(PSI), Fraction(-1))
    pot = Add(
        Mul(Add(Pow(_Q, 2), Const(Fraction(-1, 4))),
            Pow(Sin(PSI), Fraction(-2)), Pow(Sin(THETA), Fraction(-2))),
        Const(Fraction(-3, 4)))
    op = (-1 * (_P(sp_inv, "q") @ _Dpsi @ _P(Sin(PSI)) @ _Dpsi)
          - (_P(Pow(Sin(PSI), Fraction(-2)), "q") @ _Dth @ _Dth)
          + _P(pot, "q"))
    return op.normalized()


class HqBundle(NamedTuple):
    reference: DiffOp       # transcribed closed Schrodinger-type form
    derived: DiffOp         # weight . reduced invariant . weight^(-1)
    offset: IdentityReport  # measured constant part of reference - derived


def build_Hq(plan: SamplePlan) -> HqBundle:
    """Construct H_q both ways and measure the constant offset between them.

    The derived route conjugates the reduced invariant by the full angular
    weight.  The difference to the closed form is split into a derivative
    part (must vanish structurally) and a multiplication part whose constancy
    and value are measured over the plan.
    """
    reference = hq_reference()
    derived = conjugate(casimir_reduced_reference(), weight_full())
    diff = (reference - derived).normalized()
    deriv_terms = tuple(t for t in diff.terms
                        if any(t.derivs) or t.shift != 0)
    scalar_terms = tuple(t for t in diff.terms
                         if not any(t.derivs) and t.shift == 0)
    scalar = Add(*(t.coeff for t in scalar_terms)) if scalar_terms else Const(0)
    offset = measure_constant(scalar, plan, name="Hq closed-form offset")
    return HqBundle(reference, derived, offset.note(
        "difference contains derivative terms" if deriv_terms else "",
        exact=not deriv_terms))


# ---------------------------------------------------------------------------
# Weight-conjugated (primed) generators
# ---------------------------------------------------------------------------

@memo({})
def build_primed_generators() -> GeneratorSet:
    """Reduced generators conjugated by the full angular weight."""
    gs = build_reduced_generators()
    w = weight_full()
    return GeneratorSet(*(conjugate(op, w) for op in gs))


def _corr_fn(sign_im: int) -> Expr:
    # (1/4)(cot(th) + sign_im * i cot(ps)/sin(th))
    return Mul(Const(Fraction(1, 4)),
               Add(cot(THETA),
                   Mul(Const(GaussRat(0, Fraction(sign_im))), cot(PSI), csc(THETA))))


@memo({})
def primed_reference() -> GeneratorSet:
    """Closed forms: reduced generators plus scalar shift corrections, each
    riding the same lattice shift as the generator it corrects (the form
    the conjugation actually produces)."""
    def corr(fn_sign: int, coeff_sign: int, shift: int) -> DiffOp:
        term = OpTerm(Mul(Const(coeff_sign), _corr_fn(fn_sign)),
                      (0, 0, 0, 0), shift)
        return DiffOp((term,), "q")

    Lp = (reduced_ladder_reference("Lp") + corr(-1, +1, +1)).normalized()
    Rp = (reduced_ladder_reference("Rp") + corr(+1, -1, +1)).normalized()
    Lm = (reduced_ladder_reference("Lm") + corr(+1, -1, -1)).normalized()
    Rm = (reduced_ladder_reference("Rm") + corr(-1, +1, -1)).normalized()
    L3 = reduced_ladder_reference("L3")
    R3 = reduced_ladder_reference("R3")
    return GeneratorSet(Lp, Lm, L3, Rp, Rm, R3)
