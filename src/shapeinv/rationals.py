"""Exact Gaussian-rational scalars: a + b*i with Fraction components.

These are the only constants allowed inside expression trees; floats are
rejected at construction so that exactness is preserved until evaluation.
"""
from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


class GaussRat:
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("GaussRat is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(_frac(x))

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRat.of(other))

    def __rsub__(self, other):
        return GaussRat.of(other) + (-self)

    def __mul__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussRat.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussRat.of(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("GaussRat power must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def key(self):
        """Hashable primitive form (numerators/denominators)."""
        return (self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator)

    # -- conversion / rendering -------------------------------------------
    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def render(self) -> str:
        def frac_str(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        def imag_str(f: Fraction) -> str:
            if f == 1:
                return "i"
            if f.denominator == 1:
                return f"{f.numerator}i"
            return f"({f.numerator}/{f.denominator})i"

        if self.im == 0:
            return frac_str(self.re)
        if self.re == 0:
            return "-" + imag_str(-self.im) if self.im < 0 else imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({frac_str(self.re)}{sign}{imag_str(abs(self.im))})"

    def __repr__(self):
        return f"GaussRat({self.render()})"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
