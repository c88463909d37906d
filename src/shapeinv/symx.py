"""Exact symbolic expression trees for trigonometric/Gaussian operator algebra.

Six node kinds: `Const` (a Gaussian rational), `Sym`, `Add`, `Mul`, `Pow`
(a rational power) and `Fn`, one function of one argument, whose `name` is
"sin", "cos" or "exp".  `Sin`, `Cos` and `Exp` build `Fn` nodes.  Trees are
built by the node constructors only and are immutable; they stay exact until
a `Program` evaluates them, as the tests' oracle `tests/oracles.evaluate` does.

Coordinates are the four fixed names in COORDINATES; every other symbol is a
parameter (quantum numbers, frequency).  Differentiation is only defined with
respect to coordinates.

Two simplifiers are provided:

* `simplify_basic` - flattening, constant folding, neutral-element removal and
  merging of powers with identical bases.  Never expands products, and is
  idempotent.
* `canonical` - full normal form: sums of monomials over a fixed atom basis,
  with cos^2 -> 1 - sin^2 elimination so that identically-zero combinations
  of the trig expressions produced by the operator algebra collapse to the
  literal zero expression.
"""
from __future__ import annotations

import cmath
import gc
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce, wraps
from itertools import repeat
from operator import add, attrgetter, getitem, mul, or_

from .rationals import (GaussRat, I as IUNIT, ONE as QONE, ZERO as QZERO,
                        qadd, qmul)

COORDINATES = ("theta", "psi", "phi", "r")


class SymxError(Exception):
    pass


class EvalError(SymxError):
    """A negative power of an exact zero."""


class DiffError(SymxError):
    """Differentiation with respect to a non-coordinate symbol."""


def _as_fraction(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    raise TypeError(f"exponent must be an exact rational, got {type(p).__name__}")


# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------

class Expr:
    """A node.  Its `_key` is its full structural key, which holds the
    children's keys; its `_hashv` is hashed from the node's tag and the
    children's `_hashv` (and a power's exponent), so a node hashes in time
    proportional to its arity, not to the size of its subtree."""
    __slots__ = ("_key", "_hashv")

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def key(self):
        return self._key

    def __hash__(self):
        return self._hashv

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __repr__(self):
        return render(self)


# The constructors set the slots through their member descriptors, past the
# `__setattr__` that keeps the nodes immutable.
_set_key = Expr._key.__set__
_set_hash = Expr._hashv.__set__
_KEY = attrgetter("_key")
_HASH = attrgetter("_hashv")


def _nodes(args: tuple) -> tuple:
    """`args` as nodes, each coerced by `as_expr` only if one is not."""
    for a in args:
        if not isinstance(a, Expr):
            return tuple(map(as_expr, args))
    return args


def _set_branch(node: Expr, tag: str, kids: tuple):
    _set_key(node, (tag, *map(_KEY, kids)))
    _set_hash(node, hash((tag, *map(_HASH, kids))))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, float) or isinstance(value, complex):
            raise TypeError("floating-point constants are not allowed in trees")
        v = GaussRat.of(value)
        Const.value.__set__(self, v)
        key = ("const", v.key())
        _set_key(self, key)
        _set_hash(self, hash(key))


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("symbol name must be a non-empty string")
        Sym.name.__set__(self, name)
        key = ("sym", name)
        _set_key(self, key)
        _set_hash(self, hash(key))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, *terms):
        ts = _nodes(terms)
        Add.terms.__set__(self, ts)
        _set_branch(self, "add", ts)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, *factors):
        fs = _nodes(factors)
        Mul.factors.__set__(self, fs)
        _set_branch(self, "mul", fs)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        b = as_expr(base)
        p = _as_fraction(exponent)
        if isinstance(b, Const) and b.value.is_zero() and p < 0:
            raise EvalError("singular: negative power of the zero constant")
        Pow.base.__set__(self, b)
        Pow.exponent.__set__(self, p)
        n, d = p.numerator, p.denominator
        _set_key(self, ("pow", b._key, (n, d)))
        _set_hash(self, hash(("pow", b._hashv, n, d)))


# each function's float version, for `Program` and the tests' tree oracle
_FLOAT_FNS = {"sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp}


class Fn(Expr):
    """The function `name` ("sin", "cos" or "exp") of `arg`; the name is
    also the node's key tag."""
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg):
        if name not in _FLOAT_FNS:
            raise TypeError(f"unknown function {name!r}")
        a = as_expr(arg)
        Fn.name.__set__(self, name)
        Fn.arg.__set__(self, a)
        _set_key(self, (name, a._key))
        _set_hash(self, hash((name, a._hashv)))


def Sin(arg) -> Fn:
    return Fn("sin", arg)


def Cos(arg) -> Fn:
    return Fn("cos", arg)


def Exp(arg) -> Fn:
    return Fn("exp", arg)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, GaussRat)):
        return Const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


# convenient singletons
THETA = Sym("theta")
PSI = Sym("psi")
PHI = Sym("phi")
R = Sym("r")
ZERO = Const(0)
ONE = Const(1)
IMAG = Const(IUNIT)
# each function's value at the argument zero
_AT_ZERO = {"sin": ZERO, "cos": ONE, "exp": ONE}


def cot(x) -> Expr:
    return Mul(Fn("cos", x), Pow(Fn("sin", x), -1))


def csc(x) -> Expr:
    return Pow(Fn("sin", x), -1)


# ---------------------------------------------------------------------------
# Memo tables
#
# Every cache in the package is a `memo` table, listed in MEMOS, which
# `clear_caches()` empties.  Each holds at most MEMO_CAP entries and is
# emptied when it is full.  The tree kernels here are memoized by node:
# `diff` by (node, coordinate) in _DIFF_MEMO, `substitute` by (tree, name,
# replacement) in _SUBST_MEMO, `simplify_basic` in _SIMPLIFY_MEMO, with
# every tree it returned in _SIMPLIFIED as its own simplification, the
# canonical form in _CANON_MEMO and its tree in `canonical.table`; the
# canonical form's monomial products are memoized by monomial pair in
# _MONO_MEMO.  A node
# hashes from its children's cached hashes, as in Filliatre & Conchon
# ("Type-Safe Modular Hash-Consing", 2006), and compares by its full
# structural key, so a memo keyed by node costs one O(arity) hash per node
# built, and a hit returns a tree with the same key the computation would
# have built.  Nodes are not interned, but equal inputs share one result
# object, so the memos downstream of a kernel mostly hit by identity.  The
# other tables hold the pure builders upstream of the checks: the su2
# generator sets and closed forms, the ladders2d one-step operators by
# label, the osc3d operator sets by frequency, the lattice's chain walker
# and the CLI parser.
#
# Every table entry is live data, and the package leaves no reference cycles
# behind (tests/test_cycles.py), so the cyclic collector frees nothing during
# a run; it only walks the tables on each full pass.  `collector_paused`
# turns it off for the length of a run.
# ---------------------------------------------------------------------------

MEMO_CAP = 100_000
MEMOS: list = []


def memo(table: dict):
    """Decorator: memoize a pure function that never returns None in
    `table`, keyed by its one argument or by the tuple of its arguments.
    The table joins MEMOS and is the wrapper's `table` attribute."""
    MEMOS.append(table)

    def decorate(fn):
        if fn.__code__.co_argcount == 1:
            def cached(x):
                out = table.get(x)
                if out is None:
                    out = fn(x)
                    if len(table) < MEMO_CAP:
                        table[x] = out
                    else:
                        table.clear()
                return out
        else:
            def cached(*args):
                out = table.get(args)
                if out is None:
                    out = fn(*args)
                    if len(table) < MEMO_CAP:
                        table[args] = out
                    else:
                        table.clear()
                return out
        cached = wraps(fn)(cached)
        cached.table = table
        return cached

    return decorate


@contextmanager
def collector_paused():
    """Run the block with the cyclic collector disabled, and enable it
    again on exit only if it was enabled on entry.

    Nothing is collected during the pause, so every object the block made
    is still in the youngest generation at its end, and the first
    collection after it would walk them all.  When nothing is frozen, the
    exit moves them to the oldest generation instead, by a freeze and an
    unfreeze, which also resets the youngest generation's count.  The
    freeze count, the thresholds and the debug flags end as they began."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def children(e: Expr):
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Fn):
        return (e.arg,)
    return ()


def free_symbols(e: Expr) -> frozenset:
    if isinstance(e, Sym):
        return frozenset((e.name,))
    out = frozenset()
    for c in children(e):
        out |= free_symbols(c)
    return out


def rebuild(e: Expr, kids) -> Expr:
    """The node `e` over new children `kids`, given in `children(e)` order."""
    if isinstance(e, (Add, Mul)):
        return type(e)(*kids)
    if isinstance(e, Pow):
        return Pow(kids[0], e.exponent)
    if isinstance(e, Fn):
        return Fn(e.name, kids[0])
    if isinstance(e, (Const, Sym)):
        return e
    raise TypeError(f"unknown node {type(e).__name__}")


def substitute(e: Expr, name: str, repl) -> Expr:
    """Replace every occurrence of symbol `name` by `repl` (capture-free)."""
    return _substitute(e, name, as_expr(repl))


_SUBST_MEMO: dict = {}


@memo(_SUBST_MEMO)
def _substitute(e: Expr, name: str, repl: Expr) -> Expr:
    return _replace(e, name, repl)


def _replace(x: Expr, name: str, repl: Expr) -> Expr:
    if isinstance(x, Sym) and x.name == name:
        return repl
    return rebuild(x, [_replace(c, name, repl) for c in children(x)])


def trig_to_exp(e: Expr, name: str) -> Expr:
    """Rewrite sin/cos whose argument involves symbol `name` into exponentials.

    Uses sin u = -(i/2)(e^{iu} - e^{-iu}), cos u = (1/2)(e^{iu} + e^{-iu}),
    which hold identically; other trig factors are left untouched so their
    canonical forms stay in the sin/cos basis.
    """
    x = rebuild(e, [trig_to_exp(c, name) for c in children(e)])
    if (not isinstance(x, Fn) or x.name == "exp"
            or name not in free_symbols(x.arg)):
        return x
    pos = Fn("exp", Mul(IMAG, x.arg))
    neg = Fn("exp", Mul(Const(-1), IMAG, x.arg))
    if x.name == "sin":
        return Mul(Const(GaussRat(0, Fraction(-1, 2))),
                   Add(pos, Mul(Const(-1), neg)))
    return Mul(Const(Fraction(1, 2)), Add(pos, neg))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

_DIFF_MEMO: dict = {}


def diff(e: Expr, coord) -> Expr:
    if isinstance(coord, Sym):
        coord = coord.name
    if coord not in COORDINATES:
        raise DiffError(f"cannot differentiate with respect to parameter {coord!r}; "
                        f"coordinates are {COORDINATES}")
    return _diff(e, coord)


def _diff(x: Expr, coord: str) -> Expr:
    if isinstance(x, Const):
        return ZERO
    if isinstance(x, Sym):
        return ONE if x.name == coord else ZERO
    return _diff_node(x, coord)


def _sum(terms) -> Expr:
    """The sum of the `terms` that are not ZERO: ZERO, the one term left,
    or their Add."""
    ts = [t for t in terms if t is not ZERO]
    if len(ts) < 2:
        return ts[0] if ts else ZERO
    return Add(*ts)


@memo(_DIFF_MEMO)
def _diff_node(x: Expr, coord: str) -> Expr:
    """The chain rule, building no term that a ZERO derivative makes zero
    and no sum of one term.  `simplify_basic` deletes both, so the
    simplified derivative is the same tree as with them."""
    if isinstance(x, Add):
        return _sum(_diff(t, coord) for t in x.terms)
    if isinstance(x, Mul):
        fs = x.factors
        return _sum(Mul(*fs[:i], d, *fs[i + 1:])
                    for i, d in enumerate(_diff(f, coord) for f in fs)
                    if d is not ZERO)
    if isinstance(x, Pow):
        p = x.exponent
        d = ZERO if p == 0 else _diff(x.base, coord)
        if d is ZERO:
            return ZERO
        return Mul(Const(GaussRat(p)), Pow(x.base, p - 1), d)
    if isinstance(x, Fn):
        d = _diff(x.arg, coord)
        if d is ZERO:
            return ZERO
        if x.name == "sin":
            return Mul(Fn("cos", x.arg), d)
        if x.name == "cos":
            return Mul(Const(-1), Fn("sin", x.arg), d)
        return Mul(x, d)
    raise TypeError(f"unknown node {type(x).__name__}")


# ---------------------------------------------------------------------------
# simplify_basic: flatten / fold / neutral elements / merge same-base powers
# ---------------------------------------------------------------------------

_SIMPLIFY_MEMO: dict = {}
_SIMPLIFIED: dict = {}  # every tree simplify_basic returned, keyed by itself
MEMOS.append(_SIMPLIFIED)


def simplify_basic(e: Expr) -> Expr:
    """Flatten sums and products, fold constants, drop neutral elements and
    merge powers of structurally identical bases.

    Idempotent: simplify_basic(simplify_basic(e)) equals simplify_basic(e).
    So every tree it returns is recorded in _SIMPLIFIED as its own
    simplification, and a later call on an equal tree returns the recorded
    node without walking it: equal inputs share one tree."""
    if isinstance(e, (Const, Sym)):
        return e
    out = _SIMPLIFIED.get(e)
    if out is None:
        out = _simplify_node(e)
        if len(_SIMPLIFIED) < MEMO_CAP:
            _SIMPLIFIED[out] = out
        else:
            _SIMPLIFIED.clear()
    return out


def _power(b: Expr, p: Fraction) -> Expr:
    """The simplified b^p of a simplified base b."""
    if p == 0:
        return ONE
    if p == 1:
        return b
    if isinstance(b, Const) and (p.denominator == 1 or b.value.is_one()):
        if p < 0 and b.value.is_zero():
            raise EvalError("singular: negative power of the zero constant")
        return Const(b.value ** p.numerator)
    if isinstance(b, Pow) and p.denominator == 1:
        # (u^a)^n with integer n is branch-safe
        return _power(b.base, b.exponent * p)
    return Pow(b, p)


def _product(factors, const: GaussRat = QONE) -> Expr:
    """The simplified product of `const` and simplified factors."""
    flat = []
    for s in factors:
        for p in (s.factors if isinstance(s, Mul) else (s,)):
            if isinstance(p, Const):
                const = const * p.value
            else:
                flat.append(p)
    if const.is_zero():
        return ZERO
    # merge powers with structurally identical bases; a factor whose base
    # occurs once is kept as it is, since a simplified power never has
    # exponent 0 or 1
    expmap: dict = {}  # base -> (exponent, the factor if unmerged)
    for p in flat:
        base, exp = (p.base, p.exponent) if isinstance(p, Pow) else (p, 1)
        seen = expmap.get(base)
        expmap[base] = (exp, p) if seen is None else (seen[0] + exp, None)
    merged: list = []
    again = False
    for base, (exp, factor) in expmap.items():
        if factor is None:
            if exp == 0:
                continue
            factor = _power(base, exp)
            if isinstance(factor, Const):  # a merged power folds to a constant
                const = const * factor.value
                continue
            # one that folds to a product or a power of another base is
            # merged with the rest once more
            again = again or isinstance(factor, Mul) or (
                factor.base if isinstance(factor, Pow) else factor) is not base
        merged.append(factor)
    if again:
        return _product(merged, const)
    if const.is_zero():
        return ZERO
    if not merged:
        return Const(const)
    if not const.is_one():
        merged.insert(0, Const(const))
    if len(merged) == 1:
        return merged[0]
    return Mul(*merged)


@memo(_SIMPLIFY_MEMO)
def _simplify_node(e: Expr) -> Expr:
    if isinstance(e, Add):
        flat = []
        const = QZERO
        for t in e.terms:
            s = simplify_basic(t)
            if isinstance(s, Add):
                parts = s.terms
            else:
                parts = (s,)
            for p in parts:
                if isinstance(p, Const):
                    const = const + p.value
                else:
                    flat.append(p)
        if not const.is_zero():
            flat.insert(0, Const(const))
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        return Add(*flat)
    if isinstance(e, Mul):
        return _product(map(simplify_basic, e.factors))
    if isinstance(e, Pow):
        return _power(simplify_basic(e.base), e.exponent)
    if isinstance(e, Fn):
        a = simplify_basic(e.arg)
        if isinstance(a, Const) and a.value.is_zero():
            return _AT_ZERO[e.name]
        return Fn(e.name, a)
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Canonical normal form
#
# CF ("canonical form") = dict mapping monomial keys to GaussRat coefficients.
# A monomial key is a sorted tuple of (atom_key, (exp_num, exp_den)) pairs;
# the exponent is a reduced int pair, and the atom maps that build monomials
# keep it in that form (rationals.qadd / qmul), so no Fraction is made.
# Atom keys:
#   ('sym', name)
#   ('sin', argkey) / ('cos', argkey)
#   ('exp', argkey)            -- always exponent 1; scalar multiples folded
#                                 into the argument
#   ('cpow', gauss_key)        -- a constant raised to a non-integer power
# argkey = cf_key(argument CF), a nested tuple of primitives.
# ---------------------------------------------------------------------------

_CANON_MEMO: dict = {}


def _cf_key(cf: dict) -> tuple:
    return tuple(sorted((m, c.key()) for m, c in cf.items()))


def _key_to_cf(key: tuple) -> dict:
    return {m: GaussRat.from_key(c) for m, c in key}


def _cf_const(c: GaussRat) -> dict:
    return {} if c.is_zero() else {(): c}


def _add_term(out: dict, m: tuple, c: GaussRat):
    """Add the term c·m into `out`, a CF that no memo table holds."""
    s = out.get(m)
    if s is None:
        out[m] = c
        return
    s = s + c
    if s.is_zero():
        del out[m]
    else:
        out[m] = s


def _cf_scale(a: dict, c: GaussRat) -> dict:
    if c.is_zero():
        return {}
    return {m: v * c for m, v in a.items()}


def _atoms_to_mono(atoms: dict) -> tuple:
    return tuple(sorted(atoms.items()))


def _insert_atom(atoms: dict, coeff_box: list, key, exp: tuple):
    """Add base^exp, exp an exponent pair, into an atom map, folding where
    exact arithmetic allows."""
    n, d = exp
    if n == 0:
        return
    if key[0] == "exp":
        # exp atoms always carry exponent 1: scale the argument instead
        argcf = _key_to_cf(key[1])
        argcf = _cf_scale(argcf, GaussRat.from_key((n, d, 0, 1)))
        _merge_exp_atom(atoms, argcf)
        return
    cur = atoms.get(key)
    new = exp if cur is None else qadd(*cur, n, d)
    if new[0] == 0:
        atoms.pop(key, None)
        return
    if key[0] == "cpow" and new[1] == 1:
        coeff_box[0] = coeff_box[0] * (GaussRat.from_key(key[1]) ** new[0])
        atoms.pop(key, None)
        return
    atoms[key] = new


def _merge_exp_atom(atoms: dict, argcf: dict):
    """Multiply in an exp(argcf) factor, combining with any existing exp atom."""
    existing = None
    for k in atoms:
        if k[0] == "exp":
            existing = k
            break
    if existing is not None:
        combined = _key_to_cf(existing[1])
        for m, c in argcf.items():
            _add_term(combined, m, c)
        del atoms[existing]
    else:
        combined = argcf
    if combined:
        atoms[("exp", _cf_key(combined))] = (1, 1)


_MONO_MEMO: dict = {}


@memo(_MONO_MEMO)
def _mono_prod(m1: tuple, m2: tuple) -> dict:
    """The CF of the product of two monomials with unit coefficients."""
    coeff_box = [QONE]
    atoms: dict = {}
    for mono in (m1, m2):
        for k, p in mono:
            _insert_atom(atoms, coeff_box, k, p)
    return _pythagoras(atoms, coeff_box[0])


def _pythagoras(atoms: dict, coeff: GaussRat) -> dict:
    """Rewrite integer cos^k (k >= 2) as (1 - sin^2)^(k//2) * cos^(k%2)."""
    if coeff.is_zero():
        return {}
    todo = [(k, p) for k, p in atoms.items()
            if k[0] == "cos" and p[1] == 1 and p[0] >= 2]
    if not todo:
        return {_atoms_to_mono(atoms): coeff}
    out: dict = {}
    key, p = todo[0]
    h, rem = divmod(p[0], 2)
    base_atoms = dict(atoms)
    del base_atoms[key]
    if rem:
        base_atoms[key] = (1, 1)
    sin_key = ("sin", key[1])
    for j in range(h + 1):
        cb = [coeff * GaussRat((-1) ** j * math.comb(h, j))]
        at = dict(base_atoms)
        if j:
            _insert_atom(at, cb, sin_key, (2 * j, 1))
        for m, c in _pythagoras(at, cb[0]).items():
            _add_term(out, m, c)
    return out


def _cf_mul(a: dict, b: dict) -> dict:
    """a·b, each monomial product scaled from the memoized unit one; exact,
    since GaussRat arithmetic is."""
    if len(a) == 1 and () in a:  # a constant times b
        return _cf_scale(b, a[()])
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, v in _mono_prod(m1, m2).items():
                _add_term(out, m, v * c)
    return out


def _cf_pow(a: dict, p: tuple) -> dict:
    """a^(pn/pd) for the reduced exponent pair p = (pn, pd)."""
    pn, pd = p
    if pn == 0:
        return _cf_const(GaussRat(1))
    if p == (1, 1):
        return a
    if not a:
        if pn < 0:
            raise EvalError("singular: negative power of the zero expression")
        return {}
    if len(a) == 1:
        ((mono, coeff),) = a.items()
        coeff_box = [GaussRat(1)]
        atoms: dict = {}
        for k, (n, d) in mono:
            _insert_atom(atoms, coeff_box, k, qmul(n, d, pn, pd))
        # constant part
        if pd == 1:
            coeff_box[0] = coeff_box[0] * (coeff ** pn)
        elif coeff.is_one():
            pass
        else:
            _insert_atom(atoms, coeff_box, ("cpow", coeff.key()), p)
        return _pythagoras(atoms, coeff_box[0])
    if pd == 1 and pn > 0:
        out = _cf_const(GaussRat(1))
        base = a
        k = pn
        while k:
            if k & 1:
                out = _cf_mul(out, base)
            base = _cf_mul(base, base) if k > 1 else base
            k >>= 1
        return out
    raise SymxError("unsupported: non-positive-integer power of a multi-term sum")


@memo(_CANON_MEMO)
def _canon_cf(e: Expr) -> dict:
    if isinstance(e, Const):
        cf = _cf_const(e.value)
    elif isinstance(e, Sym):
        cf = {((("sym", e.name), (1, 1)),): GaussRat(1)}
    elif isinstance(e, Add):
        cf = {}
        for t in e.terms:
            for m, c in _canon_cf(t).items():
                _add_term(cf, m, c)
    elif isinstance(e, Mul):
        # the product starts from the first factor's CF, not from the unit:
        # the product of a CF and the unit is the CF itself
        cfs = [_canon_cf(f) for f in e.factors]
        cf = reduce(_cf_mul, cfs[1:], cfs[0]) if cfs else _cf_const(QONE)
    elif isinstance(e, Pow):
        p = e.exponent
        cf = _cf_pow(_canon_cf(e.base), (p.numerator, p.denominator))
    elif isinstance(e, Fn):
        acf = _canon_cf(e.arg)
        if not acf:
            cf = _cf_const(_AT_ZERO[e.name].value)
        else:
            cf = {(((e.name, _cf_key(acf)), (1, 1)),): GaussRat(1)}
    else:
        raise TypeError(f"unknown node {type(e).__name__}")
    return cf


def _atom_to_expr(key) -> Expr:
    kind = key[0]
    if kind == "sym":
        return Sym(key[1])
    if kind in _FLOAT_FNS:
        return Fn(kind, cf_to_expr(_key_to_cf(key[1])))
    if kind == "cpow":
        return Const(GaussRat.from_key(key[1]))
    raise TypeError(f"unknown atom {kind}")


def cf_to_expr(cf: dict) -> Expr:
    if not cf:
        return ZERO
    terms = []
    for mono in sorted(cf):
        coeff = cf[mono]
        factors = []
        if not coeff.is_one() or not mono:
            factors.append(Const(coeff))
        for akey, (n, d) in mono:
            base = _atom_to_expr(akey)
            factors.append(base if n == 1 and d == 1 else Pow(base, Fraction(n, d)))
        terms.append(factors[0] if len(factors) == 1 else Mul(*factors))
    return terms[0] if len(terms) == 1 else Add(*terms)


@memo({})
def canonical(e: Expr) -> Expr:
    """Full normal form; identically-zero trig combinations become Const(0).
    Equal inputs share one tree."""
    return cf_to_expr(_canon_cf(e))


def canonical_key(e: Expr) -> tuple:
    return _cf_key(_canon_cf(e))


def is_zero_expr(e: Expr) -> bool:
    return not _canon_cf(e)


def fourier_modes(e: Expr, name: str) -> list:
    """[(k, c_k)] with e = sum_k c_k e^{i k name}, k an integer and each c_k
    free of `name`, in increasing k.

    Sines and cosines of `name` are rewritten as exponentials first.  Raises
    SymxError when `name` appears any other way: outside an exponential, with
    a frequency that is not an integer times i, or nonlinearly in an exponent.
    """
    def mentions(akey) -> bool:
        return name in free_symbols(_atom_to_expr(akey))

    modes: dict = {}
    for mono, coeff in _canon_cf(trig_to_exp(e, name)).items():
        k, atoms = 0, []
        for akey, p in mono:
            if akey[0] != "exp":
                if mentions(akey):
                    raise SymxError(f"{name} appears outside an exponential")
                atoms.append((akey, p))
                continue
            arg = _key_to_cf(akey[1])
            freq = arg.pop(((("sym", name), (1, 1)),), None)
            if freq is not None:
                re_num, _, k, im_den = freq.key()
                if re_num != 0 or im_den != 1:
                    raise SymxError(f"{name} frequency is not an integer times i")
            if any(mentions(a) for m in arg for a, _ in m):
                raise SymxError(f"exponent is not linear in {name}")
            if arg:
                atoms.append((("exp", _cf_key(arg)), p))
        _add_term(modes.setdefault(k, {}), tuple(sorted(atoms)), coeff)
    return [(k, cf_to_expr(cf)) for k, cf in sorted(modes.items()) if cf]


# ---------------------------------------------------------------------------
# Compiled evaluation of trees over many points
# ---------------------------------------------------------------------------

# what a point raises where the tree oracle raises: a zero base with a negative
# power or an overflow, a cmath domain error, an unbound symbol
_FAILURES = (ArithmeticError, ValueError, LookupError)
_NAN = complex("nan")
_FOLDS = {Add: (add, 0j), Mul: (mul, 1 + 0j)}  # as the tree oracle starts them
# children per chain of maps: a chain tens of thousands deep overflows the C
# stack when it is consumed
_CHAIN = 1024


def _each(f, col: list, *args) -> list:
    """f(x, *args) over one slot's argument values x, with nan at each point
    where f raises."""
    try:
        return list(map(f, col, *map(repeat, args)))
    except _FAILURES:
        out = []
        for x in col:
            try:
                out.append(f(x, *args))
            except _FAILURES:
                out.append(_NAN)
        return out


class Program:
    """Trees compiled for evaluation at many points (after SymPy's
    `lambdify` and `cse`), and their values there: a column table, which a
    battery of sampled checks shares (`verify.shared_columns`).

    Each distinct node is one slot, children before parents, shared by all
    the trees.  `add` appends the slots of more trees that the program
    lacks and makes those trees its outputs.  Each symbol name has a bit,
    and a slot's mask is its own bit or the OR of its children's masks, so
    the walk that appends a slot also gives its free symbols; `symbols`
    decodes the OR of the outputs' masks into names.

    Calling the program with a `Cloud` evaluates, over all its points at
    once, each slot of the outputs' trees that the cloud lacks, and keeps
    the columns in the cloud for later calls: each node is evaluated once
    per cloud.  The call returns the outputs' columns, as the cloud holds
    them, so what the table holds besides the outputs' trees changes
    nothing.  Each value is the one `tests/oracles.evaluate` computes, by
    the same operations in the same order.  A point where a slot raises
    (where the oracle raises) holds nan there, and that nan is the one
    record of the failure: under IEEE 754 and the C99 Annex G special
    values that `cmath` follows, it reaches every slot above, whatever the
    other operands hold.  The one exception is a power with exponent 0, as
    pow(nan, 0) == 1; `simplify_basic` folds such a power to 1 and
    canonical forms drop it, and no tree the package samples holds one.

    Each slot's column is built as one list.  A sum or a product folds its
    children through a chain of maps, one per child (a list ends a chain
    every `_CHAIN` children), from its start value (0j or 1 + 0j, as the
    oracle starts it); its leading constants are folded into that start
    value once, not at every point.  A power is `pow` mapped over its
    base's column.
    """

    def __init__(self, exprs):
        self.steps = []  # per slot: (node type, node, child slots, mask)
        self._slots: dict = {}
        self._bits: dict = {}  # symbol name -> its bit in the masks
        self.add(exprs)

    def add(self, exprs) -> None:
        self._fresh = len(self.steps)  # the first slot this call appends
        self.outputs = [self._walk(e) for e in exprs]
        mask = reduce(or_, [self.steps[i][3] for i in self.outputs], 0)
        self.symbols = frozenset(
            name for name, bit in self._bits.items() if mask & bit)

    def _walk(self, e: Expr) -> int:
        i = self._slots.get(e)
        if i is None:
            # from a list: tuple(map(...)) grows and shrinks each tuple, which
            # raised a 300-point workload's peak RSS by 2 %
            kids = tuple([self._walk(c) for c in children(e)])
            if isinstance(e, Sym):
                mask = self._bits.setdefault(e.name, 1 << len(self._bits))
            else:
                mask = 0
                for k in kids:
                    mask |= self.steps[k][3]
            i = self._slots[e] = len(self.steps)
            self.steps.append((type(e), e, kids, mask))
        return i

    def __call__(self, cloud: Cloud) -> list:
        points, vals = cloud.points, cloud.values
        done = len(vals)
        vals += [None] * (len(self.steps) - done)
        whole = cloud.whole and done >= self._fresh
        if whole:  # the cloud lacks only what the last `add` appended
            lacking = range(done, len(vals))
        else:  # it missed an `add`: evaluate the outputs' trees alone
            lacking, stack = set(), [i for i in self.outputs if vals[i] is None]
            while stack:
                i = stack.pop()
                if i not in lacking:
                    lacking.add(i)
                    stack += [k for k in self.steps[i][2] if vals[k] is None]
            lacking = sorted(lacking)
        cloud.whole = False  # until every slot below its length is evaluated
        n = len(points)
        steps = self.steps
        for i in lacking:
            kind, e, kids, _ = steps[i]
            if kind is Mul or kind is Add:
                op, start = _FOLDS[kind]
                # the leading constants fold into the start, once; one that
                # overflows folds in nan, and every point fails
                j = 0
                for k in kids if n else ():
                    if steps[k][0] is not Const:
                        break
                    start = op(start, vals[k][0])
                    j += 1
                col = repeat(start, n)
                for depth, k in enumerate(kids[j:], 1):
                    col = map(op, col, vals[k])
                    if not depth % _CHAIN:
                        col = list(col)
                col = list(col)
            elif kind is Const:
                try:
                    col = [complex(e.value)] * n
                except _FAILURES:  # it overflows: every point fails
                    col = [_NAN] * n
            elif kind is Sym:
                col = list(map(complex, _each(getitem, points, e.name)))
            elif kind is Pow:
                p = e.exponent
                p = p.numerator if p.denominator == 1 else p.numerator / p.denominator
                col = _each(pow, vals[kids[0]], p)
            else:  # Fn
                col = _each(_FLOAT_FNS[e.name], vals[kids[0]])
            vals[i] = col
        cloud.whole = whole
        return [vals[i] for i in self.outputs]


class Cloud:
    """One point cloud, a list of bindings, and its columns in one
    `Program`: per slot, its values, None where it was not evaluated;
    `whole` while every slot below their length was.  Its length is its
    number of points."""
    __slots__ = ("points", "values", "whole")

    def __init__(self, points: list):
        self.points, self.values, self.whole = points, [], True

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Rendering (deterministic: constants, symbols, then composite nodes)
# ---------------------------------------------------------------------------

def _rank(e: Expr) -> int:
    if isinstance(e, Const):
        return 0
    if isinstance(e, Sym):
        return 1
    return 2


def render(e: Expr) -> str:
    return _render(e, 0)


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _render(x: Expr, prec: int) -> str:
    if isinstance(x, Const):
        s = x.value.render()
        need = prec >= 2 and (s.startswith("-") or "/" in s) and not s.startswith("(")
        return _paren(s, need)
    if isinstance(x, Sym):
        return x.name
    if isinstance(x, Add):
        parts = sorted(_render(t, 1) for t in x.terms)
        joined = " + ".join(parts).replace("+ -", "- ")
        return _paren(joined, prec >= 2)
    if isinstance(x, Mul):
        fs = sorted(x.factors, key=lambda f: (_rank(f), f.key()))
        return _paren("*".join(_render(f, 2) for f in fs), prec >= 3)
    if isinstance(x, Pow):
        p = x.exponent
        ps = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
        if p < 0 or p.denominator != 1:
            ps = f"({ps})"
        return f"{_render(x.base, 3)}^{ps}"
    if isinstance(x, Fn):
        return f"{x.name}({_render(x.arg, 0)})"
    raise TypeError(f"unknown node {type(x).__name__}")
