"""Linear partial differential operators with discrete parameter shifts.

An operator is a sum of terms  c(coords, p) * D^(a,b,c,d) * S^k  where
D^(a,b,c,d) differentiates with respect to (theta, psi, phi, r), and S^k is
the shift that replaces the operator's parameter p by p - k in the operand
before anything else acts.  Shift terms are what the exponential-of-
parameter-derivative notation produces after a Fourier transform in phi:
multiplication by e^{i k phi} turns into S^k together with the substitution
of the remaining phi-derivatives by i(p - k).

Composition is exact (multi-index Leibniz rule plus shift bookkeeping), so
commutators, similarity transforms and factorizations all stay symbolic.
"""
from __future__ import annotations

import itertools
import math

from .symx import (
    COORDINATES,
    Add,
    Const,
    Expr,
    Mul,
    Pow,
    Sym,
    SymxError,
    as_expr,
    canonical,
    canonical_key,
    diff,
    fourier_modes,
    is_zero_expr,
    memo,
    render,
    simplify_basic,
    substitute,
    IMAG,
    ONE,
    ZERO,
)

_NDIM = len(COORDINATES)
_NO_DERIVS = (0,) * _NDIM


class OpError(Exception):
    pass


class OpTerm:
    __slots__ = ("coeff", "derivs", "shift")

    def __init__(self, coeff, derivs=_NO_DERIVS, shift: int = 0):
        c = as_expr(coeff)
        d = tuple(int(x) for x in derivs)
        if len(d) != _NDIM or any(x < 0 for x in d):
            raise OpError(f"bad derivative multi-index {derivs!r}")
        if not isinstance(shift, int):
            raise OpError("shift must be an integer")
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "derivs", d)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("OpTerm is immutable")

    def __repr__(self):
        return f"OpTerm({render(self.coeff)}, derivs={self.derivs}, shift={self.shift})"


def _deriv_multi(f: Expr, derivs: tuple) -> Expr:
    """Differentiate coordinate by coordinate (theta first), simplifying after
    every single derivative; memoized by (node, multi-index) in `_deriv`."""
    return _deriv(f, derivs) if any(derivs) else f


_DERIV_MEMO: dict = {}


@memo(_DERIV_MEMO)
def _deriv(f: Expr, derivs: tuple) -> Expr:
    # built from the entry one derivative lower in the last differentiated
    # coordinate, so lower derivatives are shared between multi-indices
    last = max(i for i in range(_NDIM) if derivs[i])
    lower = derivs[:last] + (derivs[last] - 1,) + derivs[last + 1:]
    return simplify_basic(diff(_deriv_multi(f, lower), COORDINATES[last]))


class DiffOp:
    """Immutable sum of OpTerms sharing one optional shift parameter."""

    __slots__ = ("terms", "param")

    def __init__(self, terms, param: str | None = None):
        ts = tuple(terms)
        for t in ts:
            if not isinstance(t, OpTerm):
                raise OpError("DiffOp terms must be OpTerm instances")
            if t.shift != 0 and param is None:
                raise OpError("shift terms require a named parameter")
        if param is not None and param in COORDINATES:
            raise OpError("shift parameter cannot be a coordinate")
        object.__setattr__(self, "terms", ts)
        object.__setattr__(self, "param", param)

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("DiffOp is immutable")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp(())

    @staticmethod
    def identity(param=None) -> "DiffOp":
        return DiffOp((OpTerm(ONE),), param)

    @staticmethod
    def from_expr(e, param=None) -> "DiffOp":
        return DiffOp((OpTerm(as_expr(e)),), param)

    @staticmethod
    def partial(coord: str, param=None) -> "DiffOp":
        if coord not in COORDINATES:
            raise OpError(f"unknown coordinate {coord!r}")
        d = [0] * _NDIM
        d[COORDINATES.index(coord)] = 1
        return DiffOp((OpTerm(ONE, tuple(d)),), param)

    # -- bookkeeping ----------------------------------------------------------
    def _merge_param(self, other) -> str | None:
        a, b = self.param, other.param
        if a is None:
            return b
        if b is None or a == b:
            return a
        raise OpError(f"parameter clash: {a!r} vs {b!r}")

    def _buckets(self) -> list:
        """[(derivs, shift, coefficient sum)] for each (derivs, shift) whose
        coefficients do not sum to zero, in (shift, derivs) order."""
        buckets: dict = {}
        for t in self.terms:
            buckets.setdefault((t.derivs, t.shift), []).append(t.coeff)
        out = []
        for derivs, shift in sorted(buckets, key=lambda k: (k[1], k[0])):
            coeffs = buckets[(derivs, shift)]
            total = coeffs[0] if len(coeffs) == 1 else Add(*coeffs)
            if not is_zero_expr(total):
                out.append((derivs, shift, total))
        return out

    def normalized(self) -> "DiffOp":
        return DiffOp([OpTerm(canonical(c), derivs, shift)
                       for derivs, shift, c in self._buckets()], self.param)

    def is_zero(self) -> bool:
        return not self._buckets()

    def is_shift_free(self) -> bool:
        return all(t.shift == 0 for t in self.terms)

    def structure_key(self) -> tuple:
        return tuple((derivs, shift, canonical_key(c))
                     for derivs, shift, c in self._buckets())

    def same_operator(self, other: "DiffOp") -> bool:
        """Exact structural equality of the merged canonical forms."""
        return self.structure_key() == other.structure_key()

    # -- action on expressions -------------------------------------------------
    def apply(self, f: Expr) -> Expr:
        f = as_expr(f)
        parts = []
        for t in self.terms:
            g = f
            if t.shift != 0:
                g = substitute(g, self.param,
                               Add(Sym(self.param), Const(-t.shift)))
            g = _deriv_multi(g, t.derivs)
            parts.append(Mul(t.coeff, g))
        if not parts:
            return ZERO
        return simplify_basic(Add(*parts))

    # -- algebra ----------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return DiffOp(self.terms + other.terms, self._merge_param(other))

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DiffOp(tuple(OpTerm(Mul(Const(-1), t.coeff), t.derivs, t.shift)
                            for t in self.terms), self.param)

    def __rmul__(self, other):
        # function or scalar acting by left multiplication
        if isinstance(other, DiffOp):
            return NotImplemented
        c = as_expr(other)
        return DiffOp(tuple(OpTerm(Mul(c, t.coeff), t.derivs, t.shift)
                            for t in self.terms), self.param)

    def __matmul__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        param = self._merge_param(other)
        out = []
        for ta in self.terms:
            for tb in other.terms:
                cb = tb.coeff
                if ta.shift != 0:
                    cb = substitute(cb, param,
                                    Add(Sym(param), Const(-ta.shift)))
                ranges = [range(d + 1) for d in ta.derivs]
                for j in itertools.product(*ranges):
                    comb = 1
                    for di, ji in zip(ta.derivs, j):
                        comb *= math.comb(di, ji)
                    dcb = _deriv_multi(cb, j)
                    if isinstance(dcb, Const) and dcb.value.is_zero():
                        continue
                    coeff = simplify_basic(Mul(Const(comb), ta.coeff, dcb))
                    derivs = tuple(da - ji + db for da, ji, db
                                   in zip(ta.derivs, j, tb.derivs))
                    out.append(OpTerm(coeff, derivs, ta.shift + tb.shift))
        return DiffOp(out, param)

    # -- parameter instantiation -------------------------------------------------
    def subs_param(self, value) -> "DiffOp":
        """Pin the parameter of a shift-free operator to a concrete value."""
        if self.param is None:
            return self
        if not self.is_shift_free():
            raise OpError("cannot substitute the parameter of a shifting operator; "
                          "use at_incoming")
        v = as_expr(value)
        return DiffOp(tuple(OpTerm(substitute(t.coeff, self.param, v),
                                   t.derivs, 0) for t in self.terms), None)

    def at_incoming(self, value) -> "DiffOp":
        """Concrete operator consuming the family member labelled `value`.

        All terms must carry one common shift k; the term producing the
        member at p from the member at p - k has its coefficient evaluated
        at p = value + k.
        """
        if self.param is None:
            return self
        norm = self.normalized()
        shifts = {t.shift for t in norm.terms}
        if len(shifts) > 1:
            raise OpError(f"mixed shifts {sorted(shifts)}: no single incoming label")
        k = shifts.pop() if shifts else 0
        v = simplify_basic(Add(as_expr(value), Const(k)))
        return DiffOp(tuple(OpTerm(substitute(t.coeff, self.param, v),
                                   t.derivs, 0) for t in norm.terms), None)

    # -- presentation ---------------------------------------------------------
    def render(self) -> str:
        norm = self.normalized()
        if not norm.terms:
            return "0"
        bits = []
        for t in norm.terms:
            piece = f"({render(t.coeff)})"
            for coord, order in zip(COORDINATES, t.derivs):
                if order == 1:
                    piece += f" d/d{coord}"
                elif order > 1:
                    piece += f" d^{order}/d{coord}^{order}"
            if t.shift:
                sign = "-" if t.shift > 0 else "+"
                piece += f" [{self.param} -> {self.param} {sign} {abs(t.shift)}]"
            bits.append(piece)
        return "  +  ".join(bits)

    def to_json(self) -> dict:
        norm = self.normalized()
        return {
            "param": norm.param,
            "terms": [
                {"coeff": render(t.coeff), "derivs": list(t.derivs), "shift": t.shift}
                for t in norm.terms
            ],
        }

    def __repr__(self):
        return f"DiffOp<{self.render()}>"


def apply_canonical(op: DiffOp, f: Expr) -> Expr:
    """Apply and recanonicalize: keeps chained applications from ballooning."""
    return canonical(op.apply(f))


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return (a @ b) - (b @ a)


# ---------------------------------------------------------------------------
# Fourier reduction in phi
# ---------------------------------------------------------------------------

def fourier_reduce(op: DiffOp, param: str) -> DiffOp:
    """Replace the periodic coordinate phi by a discrete parameter.

    Under f(phi) = sum_p g(p) e^{i p phi} / sqrt(2 pi), a term
    c e^{i k phi} d^n/dphi^n maps to c (i(p-k))^n together with the shift
    p -> p - k of the operand.  Coefficients must depend on phi only through
    trigonometric/exponential factors with integer frequencies.
    """
    if not op.is_shift_free() or op.param is not None:
        raise OpError("operator already carries a shift parameter")
    if param in COORDINATES:
        raise OpError("reduction parameter cannot be a coordinate")
    psym = Sym(param)
    out = []
    phi = COORDINATES.index("phi")
    for t in op.terms:
        n = t.derivs[phi]
        derivs = t.derivs[:phi] + (0,) + t.derivs[phi + 1:]
        try:
            modes = fourier_modes(t.coeff, "phi")
        except SymxError as exc:
            raise OpError(str(exc)) from exc
        for k, c in modes:
            if n:
                c = Mul(c, Pow(Mul(IMAG, Add(psym, Const(-k))), n))
            out.append(OpTerm(c, derivs, k))
    return DiffOp(out, param).normalized()
