"""Exact Gaussian-rational scalars: a/b + (c/d)*i on plain machine ints.

These are the only constants allowed inside expression trees; floats are
rejected at construction so that exactness is preserved until evaluation.

A `GaussRat` stores its two components as reduced int pairs: each
denominator is positive, shares no factor with its numerator, and zero is
0/1.  Arithmetic stays on ints (Knuth, TAOCP Vol. 2, 4.5.1): it skips the
gcd when both denominators are 1 and otherwise reduces with `math.gcd`.
`key()` is the tuple (a, b, c, d); `GaussRat.from_key` turns it back into a
scalar without reducing again.  `qadd` and `qmul` are the same arithmetic on
one reduced pair, for callers that keep rational exponents as pairs.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def _pair(x) -> tuple:
    """The reduced (numerator, denominator) of an exact rational."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def qadd(n1: int, d1: int, n2: int, d2: int) -> tuple:
    """n1/d1 + n2/d2 as a reduced pair; both inputs reduced."""
    if d1 == d2:
        if d1 == 1:
            return n1 + n2, 1
        n = n1 + n2
        g = gcd(n, d1)
        return (n, d1) if g == 1 else (n // g, d1 // g)
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    n = n1 * (d2 // g) + n2 * s
    g2 = gcd(n, g)
    if g2 == 1:
        return n, s * d2
    return n // g2, s * (d2 // g2)


def qmul(n1: int, d1: int, n2: int, d2: int) -> tuple:
    """n1/d1 * n2/d2 as a reduced pair; both inputs reduced."""
    if d1 == 1 and d2 == 1:
        return n1 * n2, 1
    g1 = gcd(n1, d2)
    if g1 > 1:
        n1, d2 = n1 // g1, d2 // g1
    g2 = gcd(n2, d1)
    if g2 > 1:
        n2, d1 = n2 // g2, d1 // g2
    return n1 * n2, d1 * d2


def _make(a: int, b: int, c: int, d: int) -> "GaussRat":
    """A GaussRat from components already in reduced form."""
    g = object.__new__(GaussRat)
    g._a, g._b, g._c, g._d = a, b, c, d
    return g


class GaussRat:
    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, re, im=0):
        self._a, self._b = _pair(re)
        self._c, self._d = _pair(im)

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return _make(*_pair(x), 0, 1)

    @staticmethod
    def from_key(key: tuple) -> "GaussRat":
        """The scalar whose `key()` is `key`; the inverse of `key()`."""
        return _make(*key)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self._a == 0 and self._c == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 1 and self._c == 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = other if isinstance(other, GaussRat) else GaussRat.of(other)
        if self._b == 1 and o._b == 1 and self._d == 1 and o._d == 1:
            return _make(self._a + o._a, 1, self._c + o._c, 1)
        return _make(*qadd(self._a, self._b, o._a, o._b),
                     *qadd(self._c, self._d, o._c, o._d))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, self._b, -self._c, self._d)

    def __sub__(self, other):
        return self + (-GaussRat.of(other))

    def __rsub__(self, other):
        return GaussRat.of(other) + (-self)

    def __mul__(self, other):
        o = other if isinstance(other, GaussRat) else GaussRat.of(other)
        a, b, c, d = self._a, self._b, self._c, self._d
        e, f, g, h = o._a, o._b, o._c, o._d
        if b == 1 and d == 1 and f == 1 and h == 1:
            return _make(a * e - c * g, 1, a * g + c * e, 1)
        if c == 0:
            return _make(*qmul(a, b, e, f), *qmul(a, b, g, h))
        if g == 0:
            return _make(*qmul(a, b, e, f), *qmul(c, d, e, f))
        ae_n, ae_d = qmul(a, b, e, f)
        cg_n, cg_d = qmul(c, d, g, h)
        ag_n, ag_d = qmul(a, b, g, h)
        ce_n, ce_d = qmul(c, d, e, f)
        return _make(*qadd(ae_n, ae_d, -cg_n, cg_d), *qadd(ag_n, ag_d, ce_n, ce_d))

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        a, b, c, d = self._a, self._b, self._c, self._d
        if a == 0 and c == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        # 1/z = conj(z)/|z|^2, and |z|^2 = nn/nd > 0
        nn, nd = qadd(a * a, b * b, c * c, d * d)
        return _make(*qmul(a, b, nd, nn), *qmul(-c, d, nd, nn))

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
        if isinstance(other, GaussRat):
            return (self._a == other._a and self._b == other._b
                    and self._c == other._c and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            n, d = _pair(other)
            return self._c == 0 and self._a == n and self._b == d
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self._c == 0:
            return hash(self._a) if self._b == 1 else hash(Fraction(self._a, self._b))
        return hash(self.key())

    def key(self):
        """Hashable primitive form (numerators/denominators)."""
        return (self._a, self._b, self._c, self._d)

    # -- conversion / rendering -------------------------------------------
    def __complex__(self):
        # int / int rounds once, exactly as Fraction.__float__ does
        return complex(self._a / self._b, self._c / self._d)

    def render(self) -> str:
        a, b, c, d = self._a, self._b, self._c, self._d

        def frac_str(n: int, m: int) -> str:
            return str(n) if m == 1 else f"{n}/{m}"

        def imag_str(n: int, m: int) -> str:
            if n == 1 and m == 1:
                return "i"
            if m == 1:
                return f"{n}i"
            return f"({n}/{m})i"

        if c == 0:
            return frac_str(a, b)
        if a == 0:
            return "-" + imag_str(-c, d) if c < 0 else imag_str(c, d)
        sign = "+" if c > 0 else "-"
        return f"({frac_str(a, b)}{sign}{imag_str(abs(c), d)})"

    def __repr__(self):
        return f"GaussRat({self.render()})"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
