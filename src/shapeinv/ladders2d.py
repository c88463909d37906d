"""Eigenfamily factory and ladder verification for the reduced Hamiltonian.

Builds the joint eigenfunctions of the two-angle operators by repeated
application of concrete one-step lowering operators to the top state,
provides the one-step ladder coefficients, the in-level (m +- 2) and
cross-level (q +- 2) pair ladders with their scalar eigenvalues, degeneracy
bookkeeping, and chain reconstruction with measured normalization products.
The one-step moves form this sector's `lattice.Lattice`: its chain states
are walks on that table, and the pair ladders are words of two moves on it,
so the one-step actions, the pair edges and the reconstructions all read
that one table.

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
  the reference closed forms, while the B-labels attach as stated.  A pair
  scalar squared is the exact product of the squared coefficients along a
  round-trip word: the in-level one (`E_measured_closed`) reads the measured
  table, the cross-level one (`N_closed`) the stated table, which swaps the
  R-moves' coefficients.
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
    memo,
)
from .opalg import DiffOp
from . import su2
from .lattice import Lattice, Move, check_words, reach, walk, word_name
from .verify import (
    IdentityReport,
    SamplePlan,
    check_eigen,
    check_proportional,
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
        if self.twol < 0:
            raise ValueError("quantum numbers out of range: 2l >= 0")
        if abs(self.q) > self.twol:
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

@memo({})
def step_op(name: str, label) -> DiffOp:
    """One-step operator `name` ('Lm', 'Rm', 'Lp', 'Rp', 'L3' or 'R3') at
    incoming label `label`: the reduced generator's closed form pinned
    there."""
    return su2.reduced_ladder_reference(name).at_incoming(label).normalized()


def reorder_identity_residuals() -> dict:
    """Commuting the two lowering sectors: which index placement is an identity.

    The residual with the incoming-label-consistent placement
    L-(s-1) R-(s) - R-(s-1) L-(s) vanishes identically in the label s.
    The other placement, L-(s) R-(s-1) - R-(s) L-(s-1), does not; it is kept
    as a negative control.
    """
    s = Sym("s")
    sm1 = Add(s, Const(-1))
    valid = (step_op("Lm", sm1) @ step_op("Rm", s)
             - step_op("Rm", sm1) @ step_op("Lm", s))
    stated = (step_op("Lm", s) @ step_op("Rm", sm1)
              - step_op("Rm", s) @ step_op("Lm", sm1))
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


# the one-step moves with the measured label assignment; each operator is
# looked up when the move is made, so a `step_op` rebound on the module is
# the one used
_MOVES = {
    "R+": Move(lambda qn: step_op("Rp", qn.q), {"q": +1, "m": -1},
               lambda qn: _coeff_sq(-1, qn.twol, qn.q, qn.m, use_sum=False)),
    "R-": Move(lambda qn: step_op("Rm", qn.q), {"q": -1, "m": +1},
               lambda qn: _coeff_sq(+1, qn.twol, qn.q, qn.m, use_sum=False)),
    "L+": Move(lambda qn: step_op("Lp", qn.q), {"q": +1, "m": +1},
               lambda qn: _coeff_sq(+1, qn.twol, qn.q, qn.m, use_sum=True)),
    "L-": Move(lambda qn: step_op("Lm", qn.q), {"q": -1, "m": -1},
               lambda qn: _coeff_sq(-1, qn.twol, qn.q, qn.m, use_sum=True)),
}
# the table the reference closed forms state: the R-moves' coefficients swap
_STATED = {kind: move._replace(
               coeff_sq=_MOVES[{"R+": "R-", "R-": "R+"}.get(kind, kind)].coeff_sq)
           for kind, move in _MOVES.items()}


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
                          tol: float) -> IdentityReport:
    """Measure every one-step ladder ratio on the full grid at this level.

    Interior moves must carry their table coefficient; edge moves must give
    the zero function together with a zero coefficient.  The data count
    both, and keep the largest deviation of the measured coefficients from
    the reference (as-stated) labels.
    """
    labels = list(valid_states(twol))
    members, edges = check_words(_LATTICE, labels, list(zip(_MOVES)), plan,
                                 tol, word_name)
    worst = worst_of(members, tol)
    return IdentityReport(  # on unit scale, as the members
        f"ladder actions 2l={twol}", worst.relative, 1.0, tol,
        exact=worst.exact, worst=worst.worst,
        notes="A-labels verified with the measured (sign-swapped) assignment",
        data=dict(
            steps_checked=len(members) - edges, edge_annihilations=edges,
            reference_label_max_deviation=max(
                (abs(r.data["coefficient"]
                     - math.sqrt(_STATED[kind].coeff_sq(qn)))
                 for r, (qn, kind) in zip(members, product(labels, _MOVES))
                 if "coefficient" in r.data), default=0.0)))


# ---------------------------------------------------------------------------
# Pair ladders
# ---------------------------------------------------------------------------

# the pair ladders as round-trip words: m up two sites and back down, and
# q up two sites and back down
M_ROUND_TRIP = ("R-", "L+", "R+", "L-")
Q_ROUND_TRIP = ("R+", "L+", "R-", "L-")


def pair_scalar_sq(qn: QNum2D, word: tuple, stated: bool) -> Fraction:
    """Exact squared pair scalar: the product of the squared coefficients
    along a round-trip word from qn, read from the measured move table or,
    if `stated`, from the one the reference closed forms state."""
    return reach(_STATED if stated else _MOVES, qn, word)[2]


def E_measured_closed(twol: int, q: int, m: int) -> Fraction:
    """In-level pair scalar with the measured A-label assignment."""
    return Fraction((twol - m + q) * (twol + m - q + 2)
                    * (twol - m - q) * (twol + m + q + 2), 16)


def N_closed(twol: int, q: int, m: int) -> Fraction:
    """Square of the cross-level pair scalar's reference 1/16 closed form
    ((2l-m-q)(2l+m+q+2)/16) sqrt(R), exact: the form carries a square
    root."""
    rad = ((twol - m + q) * (twol - m + q + 4)
           * (twol + m - q + 2) * (twol + m - q - 2))
    if rad < 0:
        raise ValueError(f"invalid ladder move: N radicand at "
                         f"(2l={twol}, q={q}, m={m})")
    return Fraction((twol - m - q) * (twol + m + q + 2), 16) ** 2 * rad


# ---------------------------------------------------------------------------
# Chain reconstruction
# ---------------------------------------------------------------------------

def _reconstruction(top: QNum2D, pair: tuple, k: int, qn: QNum2D) -> Expr:
    """The walk from `top` down k pair words to qn, over the exact square
    root of its coefficient product against qn's chain: the walk and the
    chain reach one label, so the result is chi_reduced(qn) itself."""
    seed, path = _LATTICE.path(top)
    rec = walk(_LATTICE, seed, path + pair * k)
    ratio = Fraction(math.prod(rec.steps),
                     math.prod(_LATTICE.chain(qn).steps))
    if ratio == 1:
        return rec.state
    root = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
    over = (Const(1 / root) if root * root == ratio
            else Pow(Const(ratio), Fraction(-1, 2)))
    return canonical(Mul(over, rec.state))


def reconstruct_chain_reports(qn: QNum2D, plan: SamplePlan,
                              tol: float) -> list:
    """Ratio-constancy reports for both reconstruction routes: in-level
    pairs (R+ then L-) down from the m-top state, and cross-level pairs
    (R- then L-) down from the q-top state."""
    chi = chi_reduced(qn)
    m_top, q_top = qn.twol - abs(qn.q), qn.twol - abs(qn.m)
    out = []
    for route, top, pair, k in (
            ("m", QNum2D(qn.twol, qn.q, m_top), ("R+", "L-"),
             (m_top - qn.m) // 2),
            ("q", QNum2D(qn.twol, q_top, qn.m), ("R-", "L-"),
             (q_top - qn.q) // 2)):
        rebuilt = _reconstruction(top, pair, k, qn)
        rep = check_proportional(rebuilt, chi, plan, tol=tol,
                                 name=f"{route}-chain reconstruction {qn}")
        ok = rebuilt == chi
        out.append(rep.note("" if ok else f"not the chain state (ratio "
                                          f"{rep.data['ratio']:.6g})", exact=ok))
    return out


# ---------------------------------------------------------------------------
# Eigen verification
# ---------------------------------------------------------------------------

def verify_eigen(qn: QNum2D, plan: SamplePlan, tol: float) -> list:
    """Eigen-equation reports for one state: quadratic invariant on chi,
    Schrodinger form on the weighted chi, and the two axis generators."""
    lam = qn.eigenvalue()
    chi = chi_reduced(qn)
    quad = Fraction(1, 4) * su2.casimir_reduced_reference().subs_param(qn.q)
    hq = Fraction(1, 4) * su2.hq_reference().subs_param(qn.q)
    out = [check_eigen(quad, chi, lam, plan, tol, f"quadratic eigenvalue {qn}"),
           check_eigen(hq, chi_tilde(qn), lam, plan, tol,
                       f"weighted-form eigenvalue {qn}")]
    for name, axis, val in (("left-axis", "L3", Fraction(qn.m + qn.q, 2)),
                            ("right-axis", "R3", Fraction(qn.m - qn.q, 2))):
        out.append(check_eigen(step_op(axis, qn.q), chi, val, plan, tol,
                               f"{name} weight {qn}", reference=chi))
    return out


def annihilation_ops(qn: QNum2D) -> dict:
    """The raising words that must kill chi at the edges of its ladders,
    by name: each one's coefficient vanishes at qn."""
    out = {}
    if qn.m == qn.twol - abs(qn.q):
        out["m-raising pair"] = ("R-", "L+")
    if qn.q == qn.twol - abs(qn.m):
        out["q-raising pair"] = ("R+", "L+")
    if qn.q == qn.twol and qn.m == 0:
        out["left-raising"] = ("L+",)
        out["right-raising"] = ("R+",)
    return out


def annihilation_reports(qn: QNum2D, plan: SamplePlan, tol: float) -> list:
    """One sampled check that each of `annihilation_ops(qn)` kills chi at
    its first zero letter, scaled by chi itself, in name order."""
    names = {word: f"{name} annihilates the state"
             for name, word in sorted(annihilation_ops(qn).items())}
    return check_words(_LATTICE, [qn], list(names), plan, tol,
                       lambda word, label, edge: names[word])[0]
