"""Eigenfamily factory and ladder verification for the reduced Hamiltonian.

Builds the joint eigenfunctions of the two-angle operators by repeated
application of concrete one-step lowering operators to the top state,
provides the one-step ladder coefficients, the in-level (m +- 2) and
cross-level (q +- 2) pair ladders with their scalar eigenvalues, degeneracy
bookkeeping, and chain reconstruction with measured normalization products.

The one-step operators are not transcribed here: each is the closed form of
a reduced generator (`su2.reduced_ladder_reference`) pinned to an incoming
label, so the shape-invariance ladders and the reduced su(2) generators are
one set of operators.

Conventions established by measurement (see the decisions ledger):

* the states built by the lowering chain ("chain family") are unnormalized:
  on them every single lowering step acts with coefficient exactly 1, and
  raising steps act with the squared coefficient;
* on the coefficient-normalized family the four one-step actions are
      R+(q) -> A-(q,m),  R-(q) -> A+(q,m),  L+(q) -> B+(q,m),  L-(q) -> B-(q,m)
  i.e. the A-labels attach to the opposite sign of the R-move relative to
  the reference closed forms, while the B-labels attach as stated.  All
  scalar products below are offered both ways: `*_reference` keeps the
  reference labelling, the plain function carries the measured one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .symx import (
    Add,
    Const,
    Exp,
    Expr,
    IMAG,
    Mul,
    ONE,
    PHI,
    PSI,
    Pow,
    Sin,
    Sym,
    THETA,
    canonical,
)
from .opalg import DiffOp, apply_canonical
from . import su2
from .verify import (
    TOL_EIGEN,
    IdentityReport,
    SamplePlan,
    check_eigen,
    check_proportional,
    check_zero,
    worst_of,
)


# ---------------------------------------------------------------------------
# Quantum numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QNum2D:
    """Valid labels (2l, q, m) of one reduced eigenfunction.

    q = m_L - m_R and m = m_L + m_R for the underlying pair of weights; odd
    twol (half-integer level) is admitted -- q and m stay integers and every
    formula below goes through unchanged (both parities are exercised by the
    tests; neither is privileged).
    """
    twol: int
    q: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.twol, int) and isinstance(self.q, int)
                and isinstance(self.m, int)):
            raise ValueError("quantum numbers out of range: integers required")
        if self.twol < 0 or abs(self.q) > self.twol:
            raise ValueError(f"quantum numbers out of range: |q| <= {self.twol}")
        if abs(self.m) > self.twol - abs(self.q):
            raise ValueError(
                f"quantum numbers out of range: |m| <= {self.twol - abs(self.q)}")
        if (self.m - (self.twol - abs(self.q))) % 2 != 0:
            raise ValueError("quantum numbers out of range: parity violation")

    def eigenvalue(self) -> Fraction:
        """l(l+1) at the quadratic normalization."""
        return Fraction(self.twol * (self.twol + 2), 4)


def degeneracy(twol: int, q: int) -> list:
    """Admissible m values at fixed q: same parity as 2l-|q|, count 2l+1-|q|."""
    if abs(q) > twol:
        return []
    top = twol - abs(q)
    return list(range(-top, top + 1, 2))


def degeneracy_enumeration(twol: int) -> dict:
    """Brute-force oracle: enumerate weight pairs and bucket by q = mL - mR.

    Doubled weights 2mL, 2mR run over -twol..twol in steps of 2; q and m are
    then plain integers for either parity of twol.
    """
    table: dict = {}
    for two_ml in range(-twol, twol + 1, 2):
        for two_mr in range(-twol, twol + 1, 2):
            q = (two_ml - two_mr) // 2
            m = (two_ml + two_mr) // 2
            table.setdefault(q, set()).add(m)
    return {q: sorted(ms) for q, ms in sorted(table.items())}


def valid_states(twol: int):
    for q in range(-twol, twol + 1):
        for m in degeneracy(twol, q):
            yield QNum2D(twol, q, m)


# ---------------------------------------------------------------------------
# Concrete one-step operators
# ---------------------------------------------------------------------------

def Lminus_of(mm) -> DiffOp:
    """One-step lowering operator of the left sector at incoming label mm."""
    return su2.reduced_ladder_reference("Lm").at_incoming(mm).normalized()


def Rminus_of(mm) -> DiffOp:
    """One-step lowering operator of the right sector at incoming label mm."""
    return su2.reduced_ladder_reference("Rm").at_incoming(mm).normalized()


def Lplus_of(mm) -> DiffOp:
    return su2.reduced_ladder_reference("Lp").at_incoming(mm).normalized()


def Rplus_of(mm) -> DiffOp:
    return su2.reduced_ladder_reference("Rp").at_incoming(mm).normalized()


def L3_of(mm) -> DiffOp:
    return su2.reduced_ladder_reference("L3").subs_param(mm)


def R3_of(mm) -> DiffOp:
    return su2.reduced_ladder_reference("R3").subs_param(mm)


def reorder_identity_residuals() -> dict:
    """Commuting the two lowering sectors: which index placement is an identity.

    The residual with the incoming-label-consistent placement
    L-(s-1) R-(s) - R-(s-1) L-(s) vanishes identically in the label s.
    The other placement, L-(s) R-(s-1) - R-(s) L-(s-1), does not; it is kept
    as a negative control.
    """
    s = Sym("s")
    sm1 = Add(s, Const(-1))
    valid = Lminus_of(sm1) @ Rminus_of(s) - Rminus_of(sm1) @ Lminus_of(s)
    stated = Lminus_of(s) @ Rminus_of(sm1) - Rminus_of(s) @ Lminus_of(sm1)
    return {"valid": valid, "stated": stated}


def reorder_identity_holds() -> bool:
    """The label-consistent placement vanishes and the stated one does not."""
    res = reorder_identity_residuals()
    return res["valid"].is_zero() and not res["stated"].is_zero()


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

def highest_weight(twol: int) -> Expr:
    """Top state in all three angles: e^{i 2l phi} (sin ps sin th)^{2l}."""
    if twol < 0:
        raise ValueError("quantum numbers out of range: twol >= 0")
    body = Mul(Pow(Sin(PSI), twol), Pow(Sin(THETA), twol))
    if twol == 0:
        return ONE
    return canonical(Mul(Exp(Mul(Const(twol), IMAG, PHI)), body))


@lru_cache(maxsize=None)
def _chain(twol: int, q: int, m: int) -> Expr:
    if q == twol and m == 0:
        return canonical(Mul(Pow(Sin(PSI), twol), Pow(Sin(THETA), twol)))
    l_steps = (twol - q - m) // 2
    if l_steps > 0:
        return canonical(Lminus_of(q + 1).apply(_chain(twol, q + 1, m + 1)))
    return canonical(Rminus_of(q + 1).apply(_chain(twol, q + 1, m - 1)))


def chi_reduced(qn: QNum2D) -> Expr:
    """Unnormalized eigenfunction built by the lowering chain from the seed.

    The chain applies, reading right to left, the R-steps R-(2l)...down to
    the corner state, then the L-steps down to (q, m) -- the same operator
    string as the closed chain formula, with every intermediate state valid.
    """
    return _chain(qn.twol, qn.q, qn.m)


def chi_tilde(qn: QNum2D) -> Expr:
    """Weighted eigenfunction (sin ps sin th)^{1/2} chi for the H_q form."""
    return canonical(Mul(su2.weight_full(), chi_reduced(qn)))


# ---------------------------------------------------------------------------
# Ladder coefficients
# ---------------------------------------------------------------------------

def _rad_pair(sign: int, twol: int, diff: int):
    # radicand factors of 1/2 sqrt((2l -+ d)(2l +- d + 2)) for sign = +-1
    return (twol - sign * diff, twol + sign * diff + 2)


def _coeff_sq(kind_sign: int, twol: int, q: int, m: int, use_sum: bool) -> Fraction:
    d = (m + q) if use_sum else (m - q)
    r1, r2 = _rad_pair(kind_sign, twol, d)
    prod = r1 * r2
    if prod < 0:
        name = ("B" if use_sum else "A") + ("+" if kind_sign > 0 else "-")
        raise ValueError(
            f"invalid ladder move: {name} at (2l={twol}, q={q}, m={m})")
    return Fraction(prod, 4)


def _A(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(_coeff_sq(sign, twol, q, m, use_sum=False))


def _B(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(_coeff_sq(sign, twol, q, m, use_sum=True))


# measured one-step assignment on the coefficient-normalized family
_MEASURED_STEP = {
    "R+": lambda twol, q, m: _A(-1, twol, q, m),
    "R-": lambda twol, q, m: _A(+1, twol, q, m),
    "L+": lambda twol, q, m: _B(+1, twol, q, m),
    "L-": lambda twol, q, m: _B(-1, twol, q, m),
}
# labels as stated by the reference closed forms (negative control for A)
_REFERENCE_STEP = {
    "R+": lambda twol, q, m: _A(+1, twol, q, m),
    "R-": lambda twol, q, m: _A(-1, twol, q, m),
    "L+": lambda twol, q, m: _B(+1, twol, q, m),
    "L-": lambda twol, q, m: _B(-1, twol, q, m),
}
_STEP_TARGET = {
    "R+": lambda q, m: (q + 1, m - 1),
    "R-": lambda q, m: (q - 1, m + 1),
    "L+": lambda q, m: (q + 1, m + 1),
    "L-": lambda q, m: (q - 1, m - 1),
}


@lru_cache(maxsize=None)
def _gnorm(twol: int, q: int, m: int) -> float:
    """Scale of the chain state against the coefficient-normalized family.

    Every chain step lowers with measured coefficient 1 while the normalized
    family lowers with the B-/A+ coefficient of that step, so the chain state
    accumulates the inverse product along its construction path.
    """
    if q == twol and m == 0:
        return 1.0
    l_steps = (twol - q - m) // 2
    if l_steps > 0:
        return _gnorm(twol, q + 1, m + 1) * _B(-1, twol, q + 1, m + 1)
    return _gnorm(twol, q + 1, m - 1) * _A(+1, twol, q + 1, m - 1)


def verify_ladder_actions(twol: int, plan: SamplePlan,
                          tol: float = TOL_EIGEN) -> IdentityReport:
    """Measure every one-step ladder ratio on the full grid at this level.

    The measured pointwise ratio (converted to the normalized family via the
    chain scales) is compared against the closed coefficient formulas with
    the measured label assignment; annihilating edge steps must give the
    zero function together with a zero coefficient.  The deviation of the
    reference (as-stated) A-label assignment is recorded in the data.
    """
    # built per call, so a constructor rebound on the module is the one used
    step_ops = {"R+": Rplus_of, "R-": Rminus_of, "L+": Lplus_of, "L-": Lminus_of}
    reports = []
    ref_label_dev = 0.0
    checked = 0
    annihilated = 0
    for qn in valid_states(twol):
        src = chi_reduced(qn)
        for kind, op_of in step_ops.items():
            tq, tm = _STEP_TARGET[kind](qn.q, qn.m)
            coeff = _MEASURED_STEP[kind](qn.twol, qn.q, qn.m)
            applied = op_of(qn.q).apply(src)
            valid_target = (abs(tq) <= twol and abs(tm) <= twol - abs(tq))
            if not valid_target or coeff == 0.0:
                # edge: both the coefficient and the function must vanish
                if coeff != 0.0:
                    return IdentityReport(
                        f"ladder actions 2l={twol}", 1.0, 1.0, tol,
                        notes=f"zero target with nonzero coefficient at "
                              f"{kind} {qn}")
                name = f"{kind} edge {qn}"
                rel = check_zero(applied, plan, reference=[src], tol=tol,
                                 name=name).relative
                reports.append(IdentityReport(name, rel, 1.0, tol))
                annihilated += 1
                continue
            target = chi_reduced(QNum2D(twol, tq, tm))
            rep = check_proportional(applied, target, plan, tol=tol,
                                     name=f"{kind} {qn}")
            ratio = rep.data["ratio"]
            # chain state = (chain scale) x (normalized state), so the
            # normalized-family coefficient rescales by target/source
            measured = ratio * _gnorm(twol, tq, tm) / _gnorm(twol, qn.q, qn.m)
            rel = abs(measured - coeff) / max(abs(coeff), 1e-300)
            rel = max(rel, rep.relative)  # ratio must also be constant
            if abs(measured.imag) > tol * max(abs(coeff), 1.0):
                rel = max(rel, abs(measured.imag))
            reports.append(IdentityReport(f"{kind} at {qn}", rel, 1.0, tol))
            ref_coeff = _REFERENCE_STEP[kind](qn.twol, qn.q, qn.m)
            ref_label_dev = max(ref_label_dev, abs(measured - ref_coeff))
            checked += 1
    rep = worst_of(f"ladder actions 2l={twol}", reports, tol,
                   notes="A-labels verified with the measured (sign-swapped) "
                         "assignment")
    rep.data.update(steps_checked=checked, edge_annihilations=annihilated,
                    reference_label_max_deviation=ref_label_dev)
    return rep


# ---------------------------------------------------------------------------
# Pair ladders
# ---------------------------------------------------------------------------

def Y_ladder(q: int) -> tuple:
    """In-level pair ladders at fixed q: (m-raising, m-lowering)."""
    return (Lplus_of(q - 1) @ Rminus_of(q), Lminus_of(q + 1) @ Rplus_of(q))


def X_ladder(q: int) -> tuple:
    """Cross-level pair ladders: (q-raising from q, q-lowering into q)."""
    return (Lplus_of(q + 1) @ Rplus_of(q), Lminus_of(q + 1) @ Rminus_of(q + 2))


def E(twol: int, q: int, m: int) -> float:
    """In-level pair eigenvalue, reference labelling of the A factors."""
    return (_A(-1, twol, q, m) * _A(+1, twol, q, m + 2)
            * _B(-1, twol, q + 1, m + 1) * _B(+1, twol, q - 1, m + 1))


def E_measured(twol: int, q: int, m: int) -> float:
    """In-level pair eigenvalue with the measured A-label assignment.

    Equals 1/16 (2l-m+q)(2l+m-q+2)(2l-m-q)(2l+m+q+2).
    """
    return (_A(+1, twol, q, m) * _A(-1, twol, q, m + 2)
            * _B(+1, twol, q - 1, m + 1) * _B(-1, twol, q + 1, m + 1))


def E_measured_closed(twol: int, q: int, m: int) -> Fraction:
    return Fraction((twol - m + q) * (twol + m - q + 2)
                    * (twol - m - q) * (twol + m + q + 2), 16)


def N(twol: int, q: int, m: int) -> float:
    """Cross-level pair eigenvalue, reference 4-factor product."""
    return (_A(+1, twol, q, m) * _A(-1, twol, q + 2, m)
            * _B(+1, twol, q + 1, m - 1) * _B(-1, twol, q + 1, m + 1))


def N_closed(twol: int, q: int, m: int) -> float:
    """Cross-level pair eigenvalue, reference 1/16 closed form."""
    rad = ((twol - m + q) * (twol - m + q + 4)
           * (twol + m - q + 2) * (twol + m - q - 2))
    if rad < 0:
        raise ValueError(f"invalid ladder move: N radicand at "
                         f"(2l={twol}, q={q}, m={m})")
    return Fraction((twol - m - q) * (twol + m + q + 2), 16) * math.sqrt(rad)


def N_measured(twol: int, q: int, m: int) -> float:
    """Cross-level pair eigenvalue with the measured A-label assignment.

    Collapses to A-(q,m)^2 B+(q,m)^2 through the index identities
    A+(q+2,m)=A-(q,m), B+(q+1,m-1)=B+(q,m), B-(q+1,m+1)=B+(q,m).
    """
    return float(_coeff_sq(-1, twol, q, m, use_sum=False)
                 * _coeff_sq(+1, twol, q, m, use_sum=True))


# ---------------------------------------------------------------------------
# Chain reconstruction
# ---------------------------------------------------------------------------

def _m_top(twol: int, q: int) -> int:
    return twol - abs(q)


def reconstruct_chain(qn: QNum2D) -> Expr:
    """Rebuild chi by the in-level pair chain from the m-top state.

    Applies the m-lowering pair (2l-|q|-m)/2 times to chi at m = 2l-|q| and
    divides by the product of measured per-step scalars (exact rationals:
    each step contributes the square of a single coefficient), so the result
    is pointwise equal (ratio 1) to chi_reduced(qn).
    """
    expr, scale = _reconstruct_y(qn)
    if scale != 1:
        return canonical(Mul(Const(1 / scale), expr))
    return canonical(expr)


def _reconstruct_y(qn: QNum2D):
    top = _m_top(qn.twol, qn.q)
    expr = chi_reduced(QNum2D(qn.twol, qn.q, top))
    scale = Fraction(1)
    ylow = Y_ladder(qn.q)[1]
    for m_cur in range(top, qn.m, -2):
        expr = apply_canonical(ylow, expr)
        scale *= _coeff_sq(-1, qn.twol, qn.q, m_cur, use_sum=False)  # A-(q,m)^2
    return expr, scale


def _reconstruct_x(qn: QNum2D):
    """q-lowering pair chain from the q-top state at fixed m.

    On chain states both factors of each step are lowering operators, so the
    measured per-step scalar is exactly 1 and no normalization is needed.
    """
    q_top = qn.twol - abs(qn.m)
    expr = chi_reduced(QNum2D(qn.twol, q_top, qn.m))
    for q_cur in range(q_top - 2, qn.q - 2, -2):
        expr = apply_canonical(X_ladder(q_cur)[1], expr)
    return expr


def chain_norm_products(qn: QNum2D) -> dict:
    """Normalization strings of both reconstruction routes, all variants.

    'y_chain'  : product of measured per-step scalars on the chain family
                 (these make reconstruct_chain ratio exactly 1),
    'y_normalized': per-step product on the coefficient-normalized family
                 (measured A-label assignment),
    'y_reference': the same string with the reference A-labels (as stated),
    'x_*'      : likewise for the q-lowering route (chain value is 1).
    """
    twol, q, m = qn.twol, qn.q, qn.m
    y_chain = 1.0
    y_norm = 1.0
    y_ref = 1.0
    for m_cur in range(_m_top(twol, q), m, -2):
        y_chain *= float(_coeff_sq(-1, twol, q, m_cur, use_sum=False))
        y_norm *= _A(-1, twol, q, m_cur) * _B(-1, twol, q + 1, m_cur - 1)
        y_ref *= _A(+1, twol, q, m_cur) * _B(-1, twol, q + 1, m_cur - 1)
    x_norm = 1.0
    x_ref = 1.0
    for q_cur in range(twol - abs(m) - 2, q - 2, -2):
        x_norm *= _A(+1, twol, q_cur + 2, m) * _B(-1, twol, q_cur + 1, m + 1)
        x_ref *= _A(-1, twol, q_cur + 2, m) * _B(-1, twol, q_cur + 1, m + 1)
    return {"y_chain": y_chain, "y_normalized": y_norm, "y_reference": y_ref,
            "x_chain": 1.0, "x_normalized": x_norm, "x_reference": x_ref}


def reconstruct_chain_reports(qn: QNum2D, plan: SamplePlan,
                              tol: float = TOL_EIGEN) -> list:
    """Ratio-constancy reports for both reconstruction routes."""
    out = []
    rec = reconstruct_chain(qn)
    base = chi_reduced(qn)
    rep = check_proportional(rec, base, plan, tol=tol,
                             name=f"m-chain reconstruction {qn}")
    if abs(rep.data["ratio"] - 1.0) > 1e-6:
        rep = rep.fail(f"ratio {rep.data['ratio']:.6g} != 1")
    out.append(rep)
    xrec = _reconstruct_x(qn)
    repx = check_proportional(xrec, base, plan, tol=tol,
                              name=f"q-chain reconstruction {qn}")
    if abs(repx.data["ratio"] - 1.0) > 1e-6:
        repx = repx.fail(f"ratio {repx.data['ratio']:.6g} != 1")
    out.append(repx)
    return out


# ---------------------------------------------------------------------------
# Eigen verification
# ---------------------------------------------------------------------------

def verify_eigen(qn: QNum2D, plan: SamplePlan, tol: float = TOL_EIGEN) -> list:
    """Eigen-equation reports for one state: quadratic invariant on chi,
    Schrodinger form on the weighted chi, and the two axis generators."""
    lam = qn.eigenvalue()
    chi = chi_reduced(qn)
    quad = Fraction(1, 4) * su2.casimir_reduced_reference().subs_param(qn.q)
    hq = Fraction(1, 4) * su2.hq_reference().subs_param(qn.q)
    out = [check_eigen(quad, chi, lam, plan, tol, f"quadratic eigenvalue {qn}"),
           check_eigen(hq, chi_tilde(qn), lam, plan, tol,
                       f"weighted-form eigenvalue {qn}")]
    for name, op_of, val in (("left-axis", L3_of, Fraction(qn.m + qn.q, 2)),
                             ("right-axis", R3_of, Fraction(qn.m - qn.q, 2))):
        out.append(check_eigen(op_of(qn.q), chi, val, plan, tol,
                               f"{name} weight {qn}", reference=chi))
    return out


def annihilation_ops(qn: QNum2D) -> dict:
    """Operators that must kill chi at the edges of its ladders."""
    out = {}
    if qn.m == _m_top(qn.twol, qn.q):
        out["m-raising pair"] = Y_ladder(qn.q)[0]
    if qn.q == qn.twol - abs(qn.m):
        out["q-raising pair"] = X_ladder(qn.q)[0]
    if qn.q == qn.twol and qn.m == 0:
        out["left-raising"] = Lplus_of(qn.q)
        out["right-raising"] = Rplus_of(qn.q)
    return out


def annihilation_reports(qn: QNum2D, plan: SamplePlan, tol: float) -> list:
    """One sampled check that each of `annihilation_ops(qn)` kills chi,
    scaled by chi itself, in label order."""
    chi = chi_reduced(qn)
    return [check_zero(op.apply(chi), plan, reference=[chi], tol=tol,
                       name=f"{label} annihilates the state")
            for label, op in sorted(annihilation_ops(qn).items())]
