"""The node memos of the apply layer, pinned against the uncached route.

`symx.diff`, `symx.substitute`, `symx.simplify_basic` and
`opalg._deriv_multi` are memoized by node.  Each test below recomputes the
same trees with memo tables that keep nothing, which is the plain recursion
the memos replace, and asks for equal keys: first from warm tables, then
after `clear_caches()`, then with a cap small enough that the tables are
emptied many times over during the computation.  The trees are the
derivatives and applications of the default battery and the su(2) bracket
table, for the raw generators and for their lattice-shift reduction, whose
applications and compositions substitute p - k for the shift parameter.
"""
import importlib
import pkgutil
import re
from fractions import Fraction

import pytest

import shapeinv
from shapeinv import clear_caches, opalg, su2, symx
from shapeinv.symx import Add, Mul
from shapeinv.verify import default_battery

PROBES = default_battery("q")
GENS = su2.build_raw_generators().pairs()
SHIFT_GENS = su2.build_reduced_generators()
# every multi-index the su(2) bracket table differentiates by
MULTI_INDICES = sorted({t.derivs
                        for _, res, _ in su2.commutator_residuals(
                            su2.build_raw_generators())
                        for t in res.terms})


class _NoMemo(dict):
    """A memo table that keeps no entry: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def _raw_apply(op, f):
    # the tree that DiffOp.apply hands to simplify_basic
    return Add(*(Mul(t.coeff, opalg._deriv_multi(f, t.derivs))
                 for t in op.terms))


def _term_keys(op):
    return [(t.coeff.key(), t.derivs, t.shift) for t in op.terms]


def _keys():
    derivs = [opalg._deriv_multi(f, d).key()
              for f in PROBES for d in MULTI_INDICES]
    simplified = [symx.simplify_basic(_raw_apply(op, f)).key()
                  for _, op in GENS for f in PROBES]
    shifted = [op.apply(f).key() for op in SHIFT_GENS for f in PROBES]
    brackets = [(label, _term_keys(res))
                for gens in (su2.build_raw_generators(), SHIFT_GENS)
                for label, res, _ in su2.commutator_residuals(gens)]
    return derivs, simplified, shifted, brackets


TABLES = ((symx, "_DIFF_MEMO"), (symx, "_SUBST_MEMO"),
          (symx, "_SIMPLIFY_MEMO"), (opalg, "_DERIV_MEMO"))


def _tables():
    return [getattr(module, name) for module, name in TABLES]


@pytest.fixture(scope="module")
def uncached_keys():
    with pytest.MonkeyPatch.context() as mp:
        for module, name in TABLES:
            mp.setattr(module, name, _NoMemo())
        return _keys()


def test_multi_indices_cover_second_order_and_mixed():
    assert len(MULTI_INDICES) == 9
    assert (2, 0, 0, 0) in MULTI_INDICES and (1, 1, 0, 0) in MULTI_INDICES


def test_memoized_route_matches_uncached(uncached_keys):
    clear_caches()
    assert _keys() == uncached_keys  # filling the tables
    assert _keys() == uncached_keys  # served from the tables
    assert all(_tables())


def test_memoized_route_matches_uncached_after_clear(uncached_keys):
    _keys()
    clear_caches()
    assert not any(_tables() + [symx._CANON_MEMO])
    assert _keys() == uncached_keys


def test_memoized_route_matches_uncached_past_the_cap(uncached_keys,
                                                      monkeypatch):
    clear_caches()
    _keys()
    filled = len(symx._SIMPLIFY_MEMO)
    cap = 16
    assert filled > 10 * cap
    monkeypatch.setattr(symx, "MEMO_CAP", cap)
    clear_caches()
    assert _keys() == uncached_keys
    assert all(len(table) <= cap for table in _tables())
    clear_caches()


def test_clear_caches_empties_the_lru_tables():
    from shapeinv import ladders2d, lattice, osc3d
    osc3d.build_H4()
    ladders2d.chi_reduced(ladders2d.QNum2D(2, 1, 1))
    assert osc3d.build_H4.cache_info().currsize
    assert lattice.walk.cache_info().currsize
    clear_caches()
    assert osc3d.build_H4.cache_info().currsize == 0
    assert lattice.walk.cache_info().currsize == 0


def test_one_cache_entry_per_frequency():
    from shapeinv import osc3d
    builders = (osc3d.cartesian_ladders, osc3d.build_combos,
                osc3d.build_oscillators, osc3d.build_H4, osc3d.build_Hm)
    clear_caches()
    for build in builders:
        assert build() is build(None)
        assert build(1) is build(Fraction(1)) is build(omega=Fraction(2, 2))
    # one entry for the symbolic frequency, one for omega = 1
    assert [b.cache_info().currsize for b in builders] == [2] * 5
    clear_caches()


def _package_memos():
    """Every module-level dict named `_*_MEMO` in the package modules."""
    found = {}
    for info in pkgutil.iter_modules(shapeinv.__path__):
        module = importlib.import_module(f"shapeinv.{info.name}")
        for name, value in vars(module).items():
            if re.fullmatch(r"_\w+_MEMO", name) and isinstance(value, dict):
                found[f"{info.name}.{name}"] = value
    return found


def test_clear_caches_empties_every_memo_table():
    memos = _package_memos()
    assert "symx._CANON_MEMO" in memos
    _keys()
    symx.canonical_key(PROBES[0])
    assert all(memos.values()), "a table stayed empty: fill it above"
    clear_caches()
    kept = sorted(name for name, table in memos.items() if table)
    assert not kept, "clear_caches() leaves " + ", ".join(kept)
