"""Reference routes the tests compare the package against: `evaluate`, the
tree oracle that `symx.Program` must match value for value, and the 3-D
ladder states as `osc3d` built them before the lattice's chain walker.
"""
import math
from fractions import Fraction
from functools import lru_cache

from shapeinv import osc3d
from shapeinv.opalg import apply_canonical
from shapeinv.osc3d import QNum3D, build_oscillators, c_squared
from shapeinv.symx import (
    Add, Const, EvalError, Expr, Fn, Mul, Pow, Sym, _FLOAT_FNS, canonical,
)


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
    s = build_oscillators(w)
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
