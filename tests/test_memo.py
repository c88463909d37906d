"""The node memos of the apply layer, pinned against the uncached route.

`symx.simplify_basic` and `opalg._deriv_multi` are memoized by node.  Each
test below recomputes the same trees with memo tables that keep nothing,
which is the plain recursion the memos replace, and asks for equal keys:
first from warm tables, then after `clear_caches()`, then with a cap small
enough that the tables are emptied many times over during the computation.
"""
from fractions import Fraction

import pytest

from shapeinv import clear_caches, opalg, su2, symx
from shapeinv.symx import Add, Mul
from shapeinv.verify import default_battery

PROBES = default_battery("q")
GENS = su2.build_raw_generators().pairs()
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


def _keys():
    derivs = [opalg._deriv_multi(f, d).key()
              for f in PROBES for d in MULTI_INDICES]
    simplified = [symx.simplify_basic(_raw_apply(op, f)).key()
                  for _, op in GENS for f in PROBES]
    return derivs, simplified


@pytest.fixture(scope="module")
def uncached_keys():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symx, "_SIMPLIFY_MEMO", _NoMemo())
        mp.setattr(opalg, "_DERIV_MEMO", _NoMemo())
        return _keys()


def test_multi_indices_cover_second_order_and_mixed():
    assert len(MULTI_INDICES) == 9
    assert (2, 0, 0, 0) in MULTI_INDICES and (1, 1, 0, 0) in MULTI_INDICES


def test_memoized_route_matches_uncached(uncached_keys):
    clear_caches()
    assert _keys() == uncached_keys  # filling the tables
    assert _keys() == uncached_keys  # served from the tables
    assert opalg._DERIV_MEMO and symx._SIMPLIFY_MEMO


def test_memoized_route_matches_uncached_after_clear(uncached_keys):
    _keys()
    clear_caches()
    assert not (opalg._DERIV_MEMO or symx._SIMPLIFY_MEMO or symx._CANON_MEMO)
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
    assert len(symx._SIMPLIFY_MEMO) <= cap
    assert len(opalg._DERIV_MEMO) <= cap
    clear_caches()


def test_clear_caches_empties_the_lru_tables():
    from shapeinv import ladders2d, osc3d
    osc3d.build_H4()
    ladders2d._chain(2, 2, 0)
    assert osc3d.build_H4.cache_info().currsize
    assert ladders2d._chain.cache_info().currsize
    clear_caches()
    assert osc3d.build_H4.cache_info().currsize == 0
    assert ladders2d._chain.cache_info().currsize == 0


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
