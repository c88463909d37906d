"""Exact scalars on machine ints, pinned against the Fraction-pair design.

`FractionPairGaussRat` below is the earlier `GaussRat`, which kept its two
components as `fractions.Fraction`s.  Every operation of the int-based
`GaussRat` must give the same key, rendering and complex bits on the same
inputs, including negative and very large numerators and denominators.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv.rationals import GaussRat, qadd, qmul


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


class FractionPairGaussRat:
    """The reference: a + b*i with Fraction components."""
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    @staticmethod
    def of(x):
        if isinstance(x, FractionPairGaussRat):
            return x
        return FractionPairGaussRat(_frac(x))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_one(self):
        return self.re == 1 and self.im == 0

    def __add__(self, other):
        o = FractionPairGaussRat.of(other)
        return FractionPairGaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairGaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionPairGaussRat.of(other))

    def __rsub__(self, other):
        return FractionPairGaussRat.of(other) + (-self)

    def __mul__(self, other):
        o = FractionPairGaussRat.of(other)
        return FractionPairGaussRat(self.re * o.re - self.im * o.im,
                                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return FractionPairGaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * FractionPairGaussRat.of(other).inverse()

    def __rtruediv__(self, other):
        return FractionPairGaussRat.of(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionPairGaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPairGaussRat(other)
        if not isinstance(other, FractionPairGaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = None

    def key(self):
        return (self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def render(self):
        def frac_str(f):
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        def imag_str(f):
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


_ints = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
_dens = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30)).filter(bool)
_rationals = st.one_of(_ints, st.builds(Fraction, _ints, _dens))
_components = st.tuples(_rationals, _rationals)
_powers = st.integers(-5, 6)


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _same(new, old) -> None:
    """`new` and the reference `old` hold the same value, key, rendering,
    components and complex bits."""
    assert isinstance(new, GaussRat)
    assert new.key() == old.key()
    assert new.render() == old.render()
    a, b, c, d = new.key()
    assert (Fraction(a, b), Fraction(c, d)) == (old.re, old.im)
    assert _bits(complex(new)) == _bits(complex(old))
    assert new.is_zero() == old.is_zero()
    assert new.is_one() == old.is_one()
    assert GaussRat.from_key(new.key()) == new


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _both(f, new_args, old_args):
    new, old = _outcome(f, *new_args), _outcome(f, *old_args)
    if old is ZeroDivisionError:
        assert new is ZeroDivisionError
    else:
        _same(new, old)


@settings(max_examples=300, deadline=None)
@given(_components, _components, _rationals, _powers)
def test_arithmetic_matches_fraction_pairs(x, y, s, k):
    nx, ny = GaussRat(*x), GaussRat(*y)
    ox, oy = FractionPairGaussRat(*x), FractionPairGaussRat(*y)
    _same(nx, ox)
    _same(GaussRat.of(s), FractionPairGaussRat.of(s))
    _same(-nx, -ox)
    _both(lambda a: a.inverse(), (nx,), (ox,))
    _both(lambda a: a ** k, (nx,), (ox,))
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b):
        _both(op, (nx, ny), (ox, oy))
        _both(op, (nx, s), (ox, s))        # GaussRat op int/Fraction
        _both(op, (s, nx), (s, ox))        # int/Fraction op GaussRat


@settings(max_examples=300, deadline=None)
@given(_components, _components, _rationals)
def test_equality_and_hash(x, y, s):
    nx, ny = GaussRat(*x), GaussRat(*y)
    ox, oy = FractionPairGaussRat(*x), FractionPairGaussRat(*y)
    assert (nx == ny) == (ox == oy)
    assert (nx == s) == (ox == s) == (s == nx)
    assert (nx == GaussRat(s)) == (ox == s)
    # equal values hash alike, whichever way they were built
    same = GaussRat(*(Fraction(c) for c in x))
    assert same == nx and hash(same) == hash(nx)
    assert hash(GaussRat(s)) == hash(s)
    if nx == ny:
        assert hash(nx) == hash(ny)


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals)
def test_pair_arithmetic_matches_fractions(p, q):
    p, q = Fraction(p), Fraction(q)
    pp, qq = (p.numerator, p.denominator), (q.numerator, q.denominator)
    assert qadd(*pp, *qq) == ((p + q).numerator, (p + q).denominator)
    assert qmul(*pp, *qq) == ((p * q).numerator, (p * q).denominator)


@pytest.mark.parametrize("bad", [0.5, 1.0, 1j, "1", None])
def test_inexact_values_are_rejected(bad):
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)
    with pytest.raises(TypeError):
        GaussRat.of(bad)
    with pytest.raises(TypeError):
        GaussRat(1) + bad


def test_of_returns_its_argument_and_inverse_of_zero_raises():
    z = GaussRat(Fraction(1, 2), -3)
    assert GaussRat.of(z) is z
    assert GaussRat.of(True).key() == (1, 1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        GaussRat(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussRat(0) ** -1
    with pytest.raises(TypeError):
        z ** Fraction(1, 2)
