"""Reference routes the tests compare the package against: `evaluate`, the
tree oracle that `symx.Program` must match value for value; the 3-D ladder
states as `osc3d` built them before the lattice's chain walker; and the
3-D ladder sets and transcription reports as `osc3d` built them when the
phi-full combos and the reduced oscillators were two shapes of set.  The
oracles judge exactly through `structural` and `failed`, the two report
helpers that the package had before each report carried its exact half.
`sample_points` draws a plan's cloud as `verify.SamplePlan.points` did
before its per-point loop did only the draws.
"""
import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from shapeinv import osc3d
from shapeinv.opalg import DiffOp, apply_canonical, fourier_reduce
from shapeinv.osc3d import (
    _DPH, _DPS, _DR, _DTH, QNum3D, _combo, _only_derivs, _phi_exponential,
    angular_matches_invariant, angular_prefactor_deviation,
    build_H4, build_Hm, c_squared, c_squared_printed, cartesian_a1_printed,
    cartesian_ladders, combo_reference, h4_reference, hm_reference,
    radial_similarity_matches, reduced_reference,
)
from shapeinv.symx import (
    Add, Const, EvalError, Expr, Fn, Mul, Pow, Sym, _FLOAT_FNS, canonical,
)
from shapeinv.verify import (
    DEFAULT_BOXES, GENERIC_BOX, INT_POOLS, OMEGA_POOL, IdentityReport,
)


def structural(ok: bool, notes: str, name="structural") -> IdentityReport:
    """The exact-only report, as the oracles below built it before a report
    carried its exact half: relative 0 when `ok`, 1 when not."""
    return IdentityReport(name, exact=ok, notes=notes)


def failed(rep: IdentityReport, reason: str) -> IdentityReport:
    """`rep` failed on its exact half, with `reason` after its notes."""
    return rep.note(reason, exact=False)


def evaluate(e: Expr, binding: dict) -> complex:
    """Numerically evaluate with all free symbols bound.

    Raises EvalError for unbound symbols and for singular points
    (negative/fractional powers of zero).
    """
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, Sym):
        try:
            v = binding[e.name]
        except KeyError:
            raise EvalError(f"unbound symbol {e.name!r}") from None
        return complex(v)
    if isinstance(e, Add):
        return sum((evaluate(t, binding) for t in e.terms), 0j)
    if isinstance(e, Mul):
        out = 1.0 + 0j
        for f in e.factors:
            out *= evaluate(f, binding)
        return out
    if isinstance(e, Pow):
        b = evaluate(e.base, binding)
        p = e.exponent
        if b == 0:
            if p < 0:
                raise EvalError("singular evaluation: zero base with negative power")
            return 0j if p > 0 else 1.0 + 0j
        if p.denominator == 1:
            return b ** p.numerator
        return b ** (p.numerator / p.denominator)
    if isinstance(e, Fn):
        return _FLOAT_FNS[e.name](evaluate(e.arg, binding))
    raise TypeError(f"unknown node {type(e).__name__}")


@lru_cache(maxsize=None)
def psi_ladder(qn: QNum3D) -> Expr:
    w = qn.omega
    s = osc3d.build_oscillators(w)
    f = osc3d._gaussian(w)
    for k in range(qn.n):
        f = apply_canonical(s.A2d.at_incoming(k), f)
    for _ in range(qn.n4):
        f = apply_canonical(s.a4d.at_incoming(0), f)
    for _ in range(qn.n3):
        f = apply_canonical(s.a3d.at_incoming(0), f)
    for k in range(qn.n, qn.m, -2):
        f = apply_canonical(s.A1d.at_incoming(k), f)
        f = apply_canonical(s.A2.at_incoming(k - 1), f)
    c_sq = c_squared(qn.n, qn.m)
    if c_sq != 1:
        f = canonical(Mul(Pow(Const(c_sq), Fraction(-1, 2)), f))
    return f


@lru_cache(maxsize=None)
def state_normalized(qn: QNum3D) -> Expr:
    scale = (math.factorial(qn.n) * math.factorial(qn.n3)
             * math.factorial(qn.n4))
    if scale == 1:
        return psi_ladder(qn)
    return canonical(Mul(Pow(Const(Fraction(1, scale)), Fraction(1, 2)),
                         psi_ladder(qn)))


# -- the 3-D ladder sets in two shapes ------------------------------------------
# Copied from `osc3d` as it was, less the `_per_frequency` memo: a memo
# table joins `symx.MEMOS`, which the memo tests require the package's own
# routes to fill.

class ComboSet(NamedTuple):
    A1: DiffOp
    A1d: DiffOp
    A2: DiffOp
    A2d: DiffOp


def build_combos(omega=None) -> ComboSet:
    """A1 = (a1 + i a2)/sqrt2, A2 = (a1 - i a2)/sqrt2 and the adjoints."""
    c = cartesian_ladders(omega)
    return ComboSet(_phi_exponential(_combo(c.a1, c.a2, +1)),
                    _phi_exponential(_combo(c.a1d, c.a2d, -1)),
                    _phi_exponential(_combo(c.a1, c.a2, -1)),
                    _phi_exponential(_combo(c.a1d, c.a2d, +1)))


class OscillatorSet(NamedTuple):
    a3: DiffOp
    a3d: DiffOp
    a4: DiffOp
    a4d: DiffOp
    A1: DiffOp
    A1d: DiffOp
    A2: DiffOp
    A2d: DiffOp


def build_oscillators(omega=None) -> OscillatorSet:
    """The reduced operator family on the m-lattice (symbolic m).

    a3, a4 act within one lattice site; A1, A2d shift m up by one, A2, A1d
    shift it down by one.  All eight are Fourier reductions of the derived
    phi-full operators."""
    cart = cartesian_ladders(omega)
    comb = build_combos(omega)
    red = lambda op: fourier_reduce(op, "m")
    return OscillatorSet(red(cart.a3), red(cart.a3d), red(cart.a4),
                         red(cart.a4d), red(comb.A1), red(comb.A1d),
                         red(comb.A2), red(comb.A2d))


def transcription_reports() -> dict:
    """Structural comparison of every closed transcription against the
    derived operators, keyed by report name: exact matches must match, and
    each known deviation must be nonzero and confined to its offending
    slot."""
    cart = cartesian_ladders()
    comb = build_combos()
    s = build_oscillators()

    diff = cart.a1 - cartesian_a1_printed()
    out = [structural(
        _only_derivs(diff, {_DPS}), name="cartesian a1 psi slot",
        notes="the transcribed first cartesian operator carries cos(phi) in "
              "its psi slot where the gradient has sin(phi); all other "
              "slots agree")]

    derived = {"A1": comb.A1, "A1d": comb.A1d, "A2": comb.A2, "A2d": comb.A2d}
    for name in ("A2", "A2d"):
        ok = derived[name].same_operator(combo_reference(name, printed=True))
        out.append(structural(
            ok, name=f"full {name} transcription",
            notes="printed and derived forms agree exactly"))
    diff = comb.A1 - combo_reference("A1", printed=True)
    out.append(structural(
        _only_derivs(diff, {_DPS}), name="full A1 psi slot",
        notes="the transcribed first lowering combo flips only the "
              "psi-derivative sign"))
    diff = comb.A1d - combo_reference("A1d", printed=True)
    out.append(structural(
        _only_derivs(diff, {_DR, _DPS, _DTH, _DPH}),
        name="full A1d derivative group",
        notes="the transcribed first raising combo flips the sign of its "
              "whole derivative group; the multiplicative term agrees"))
    out.append(structural(
        combo_reference("A1d", printed=True).same_operator(
            combo_reference("A2", printed=True)),
        name="printed A1d collapses onto A2",
        notes="as transcribed, the first raising combo and the second "
              "lowering combo are the same operator; the corrected "
              "derivative-group sign separates them"))

    reduced = {"A1": s.A1, "A1d": s.A1d, "A2": s.A2, "A2d": s.A2d}
    for name in ("A1d", "A2", "A2d"):
        ok = reduced[name].same_operator(reduced_reference(name, printed=True))
        out.append(structural(
            ok, name=f"reduced {name} transcription",
            notes="printed and derived reduced forms agree exactly "
                  "(incoming-label scalar slot included)"))
    diff = s.A1 - reduced_reference("A1", printed=True)
    out.append(structural(
        _only_derivs(diff, {_DPS}), name="reduced A1 psi slot",
        notes="the reduced transcription inherits the psi-slot sign flip "
              "of the phi-full form; the incoming-label scalar is correct"))
    for name in ("A1", "A1d", "A2", "A2d"):
        ok = reduced[name].same_operator(reduced_reference(name))
        out.append(structural(
            ok, name=f"reduced {name} corrected",
            notes="corrected transcription matches the derived reduction"))

    out.append(structural(
        build_H4().same_operator(h4_reference()), name="full Hamiltonian",
        notes="derived Laplacian route matches the corrected transcription "
              "(angular prefactor 1/r^2)"))
    out.append(structural(
        angular_matches_invariant(), name="angular block is the invariant",
        notes="the angular block equals minus the two-angle quadratic "
              "invariant operator"))
    out.append(structural(
        build_Hm().same_operator(hm_reference()), name="reduced Hamiltonian",
        notes="the reduced transcription is correct as printed"))
    out.append(structural(
        radial_similarity_matches(), name="radial similarity",
        notes="r^(1/2)-conjugation reproduces the weighted form including "
              "the +3/(8 r^2) residue"))
    out.append(angular_prefactor_deviation())

    ok = all(c_squared(n, m) == c_squared_printed(n, m)
             for n in range(0, 9) for m in range(-n, n + 1, 2))
    out.append(structural(
        ok, name="descent normalization closed form",
        notes="the transcribed closed form of the descent constant equals "
              "the per-step product exactly (n <= 8)"))
    return {rep.name: rep for rep in out}


# -- the sample cloud ----------------------------------------------------------
# `verify.SamplePlan.points` as it was, with the sorted extras and the box
# widths worked out at every point; `self` is the plan.

def sample_points(self, extra_symbols) -> list:
    """Bindings for the four coordinates plus any extra named symbols.

    Extras are drawn from integer pools for quantum-number-like names,
    from the frequency pool for 'omega', and from a generic positive box
    otherwise.  The sequence is a pure function of (seed, count, extras);
    the mix-in below is content-stable so reruns in fresh processes
    (randomized string hashing) see identical clouds.
    """
    key = f"{self.seed}|{','.join(sorted(set(extra_symbols)))}"
    rng = random.Random(int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:8], "big"))
    pts = []
    for _ in range(self.count):
        b = {}
        for name in ("theta", "psi", "phi", "r"):
            lo, hi = DEFAULT_BOXES[name]
            b[name] = lo + (hi - lo) * rng.random()
        for name in sorted(set(extra_symbols)):
            if name in b:
                continue
            if name == "omega":
                b[name] = OMEGA_POOL[rng.randrange(len(OMEGA_POOL))]
            elif name in INT_POOLS:
                lo, hi = INT_POOLS[name]
                b[name] = float(rng.randint(lo, hi))
            else:
                lo, hi = GENERIC_BOX
                b[name] = lo + (hi - lo) * rng.random()
        pts.append(b)
    return pts
