"""Eigenfamily factory and ladder verification for the reduced Hamiltonian.

Builds the joint eigenfunctions of the two-angle operators by repeated
application of concrete one-step lowering operators to the top state,
provides the one-step ladder coefficients, the in-level (m +- 2) and
cross-level (q +- 2) pair ladders with their scalar eigenvalues, degeneracy
bookkeeping, and chain reconstruction with measured normalization products.
The one-step moves form this sector's `lattice.Lattice`: its chain states
are walks on that table, and its one-step check is the shared actions loop.

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
  the reference closed forms, while the B-labels attach as stated.  The
  pair products come both ways: `E` and `N` keep the reference labelling,
  `E_measured` carries the measured one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .symx import (
    Add,
    Const,
    Expr,
    Mul,
    PSI,
    Pow,
    Sin,
    Sym,
    THETA,
    canonical,
)
from .opalg import DiffOp, apply_canonical
from . import su2
from .lattice import Lattice, Move, check_moves
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

def chi_reduced(qn: QNum2D) -> Expr:
    """Unnormalized eigenfunction built by the lowering chain from the top
    state (sin ps sin th)^{2l}."""
    return _LATTICE.chain(qn).state


def chi_tilde(qn: QNum2D) -> Expr:
    """Weighted eigenfunction (sin ps sin th)^{1/2} chi for the H_q form."""
    return canonical(Mul(su2.weight_full(), chi_reduced(qn)))


# ---------------------------------------------------------------------------
# Ladder coefficients
# ---------------------------------------------------------------------------

def _coeff_sq(kind_sign: int, twol: int, q: int, m: int, use_sum: bool) -> Fraction:
    d = (m + q) if use_sum else (m - q)
    # radicand of 1/2 sqrt((2l -+ d)(2l +- d + 2)) for sign = +-1
    prod = (twol - kind_sign * d) * (twol + kind_sign * d + 2)
    if prod < 0:
        name = ("B" if use_sum else "A") + ("+" if kind_sign > 0 else "-")
        raise ValueError(
            f"invalid ladder move: {name} at (2l={twol}, q={q}, m={m})")
    return Fraction(prod, 4)


def _A(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(_coeff_sq(sign, twol, q, m, use_sum=False))


def _B(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(_coeff_sq(sign, twol, q, m, use_sum=True))


# the one-step moves with the measured label assignment; each operator is
# looked up when the move is made, so a constructor rebound on the module
# is the one used
_MOVES = {
    "R+": Move(lambda qn: Rplus_of(qn.q), {"q": +1, "m": -1},
               lambda qn: _coeff_sq(-1, qn.twol, qn.q, qn.m, use_sum=False)),
    "R-": Move(lambda qn: Rminus_of(qn.q), {"q": -1, "m": +1},
               lambda qn: _coeff_sq(+1, qn.twol, qn.q, qn.m, use_sum=False)),
    "L+": Move(lambda qn: Lplus_of(qn.q), {"q": +1, "m": +1},
               lambda qn: _coeff_sq(+1, qn.twol, qn.q, qn.m, use_sum=True)),
    "L-": Move(lambda qn: Lminus_of(qn.q), {"q": -1, "m": -1},
               lambda qn: _coeff_sq(-1, qn.twol, qn.q, qn.m, use_sum=True)),
}
# the move whose coefficient the reference closed forms state for each move
_STATED = {"R+": "R-", "R-": "R+", "L+": "L+", "L-": "L-"}


def _path(qn: QNum2D):
    """The lowering chain from the top state (2l, 2l, 0): R-steps to the
    corner state, then L-steps down to (q, m), every state on the way valid."""
    return QNum2D(qn.twol, qn.twol, 0), (
        ("R-",) * ((qn.twol - qn.q + qn.m) // 2)
        + ("L-",) * ((qn.twol - qn.q - qn.m) // 2))


_LATTICE = Lattice(
    _MOVES,
    lambda qn: canonical(Mul(Pow(Sin(PSI), qn.twol), Pow(Sin(THETA), qn.twol))),
    _path)


def verify_ladder_actions(twol: int, plan: SamplePlan,
                          tol: float = TOL_EIGEN) -> IdentityReport:
    """Measure every one-step ladder ratio on the full grid at this level.

    Interior moves must carry their table coefficient; edge moves must give
    the zero function together with a zero coefficient.  The data count
    both, and keep the largest deviation of the measured coefficients from
    the reference (as-stated) labels.
    """
    labels = list(valid_states(twol))
    members, edges = check_moves(_LATTICE, labels, plan, tol)
    rep = worst_of(f"ladder actions 2l={twol}", members, tol,
                   notes="A-labels verified with the measured (sign-swapped) "
                         "assignment")
    rep.max_abs, rep.scale = rep.relative, 1.0  # on unit scale, as the members
    rep.data.update(
        steps_checked=len(members) - edges, edge_annihilations=edges,
        reference_label_max_deviation=max(
            (abs(r.data["coefficient"]
                 - math.sqrt(_MOVES[_STATED[kind]].coeff_sq(qn)))
             for r, (qn, kind) in zip(members, product(labels, _MOVES))
             if "coefficient" in r.data), default=0.0))
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


def at_raising_edge(qn: QNum2D) -> bool:
    """Whether a pair ladder raises qn off the lattice, read from the label
    alone: the states `annihilation_ops` has operators for."""
    return qn.m == _m_top(qn.twol, qn.q) or qn.q == qn.twol - abs(qn.m)


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
