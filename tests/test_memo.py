"""Every cache of the package is a `symx.memo` table, pinned against the
uncached route.

`symx.memo` lists each table in `symx.MEMOS`: the node memos of the tree
kernels (`diff`, `substitute`, `simplify_basic` and its fixed points, the
monomial products, the canonical form and its tree, `opalg._deriv_multi`),
the lattice's chain walker, the `su2` and `osc3d` builders, the `ladders2d`
one-step operators and the CLI parser.
Each test below recomputes the same results with MEMO_CAP = 0, a cap that
keeps nothing, which is the plain recursion the memos replace, and asks for
equal keys: first from warm tables, then after `clear_caches()`, then with
caps small enough that the tables are emptied many times over during the
computation.  The trees are the derivatives and applications of the default
battery and the su(2) bracket table, for the raw generators and for their
lattice-shift reduction, whose applications and compositions substitute
p - k for the shift parameter; the 3-D Hamiltonian at symbolic and unit
frequency; one chain state of each ladder sector; every su(2) closed form,
the weighted generators and the one-step operators at one label; the
gradient-flipped oscillator set; and the CLI's parse of one command line.
"""
import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import shapeinv
from shapeinv import cli, clear_caches, ladders2d, opalg, osc3d, su2, symx
from shapeinv.suite import SuiteConfig, run_suite
from shapeinv.symx import Add, Mul
from shapeinv.verify import default_battery

PROBES = default_battery("q")
GENS = su2.build_raw_generators().pairs()
# every multi-index the su(2) bracket table differentiates by
MULTI_INDICES = sorted({t.derivs
                        for _, res, _ in su2.commutator_residuals(
                            su2.build_raw_generators())
                        for t in res.terms})
PACKAGE = Path(shapeinv.__file__).parent
STEP_OPS = ("Lm", "Rm", "Lp", "Rp", "L3", "R3")


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
    shift_gens = su2.build_reduced_generators()
    shifted = [op.apply(f).key() for op in shift_gens for f in PROBES]
    brackets = [(label, _term_keys(res))
                for gens in (su2.build_raw_generators(), shift_gens)
                for label, res, _ in su2.commutator_residuals(gens)]
    hamiltonians = [_term_keys(osc3d.build_Hm(w)) for w in (None, 1)]
    chains = [ladders2d.chi_reduced(ladders2d.QNum2D(2, 1, 1)).key(),
              osc3d.psi_ladder(osc3d.QNum3D(1, 1)).key()]
    builders = [_term_keys(op) for op in (
        su2.casimir_reference(), su2.casimir_reduced_reference(),
        su2.weighted_reduced_reference(), su2.hq_reference(),
        *su2.build_primed_generators(), *su2.primed_reference(),
        *(ladders2d.step_op(name, 2) for name in STEP_OPS),
        *osc3d.gradient_flipped_oscillators())]
    parsed = sorted(vars(cli.build_parser().parse_args(["suite"])).items())
    return (derivs, simplified, shifted, brackets, hamiltonians, chains,
            builders, parsed)


@pytest.fixture(scope="module")
def uncached_keys():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symx, "MEMO_CAP", 0)
        clear_caches()
        keys = _keys()
        assert not any(symx.MEMOS), "a table kept an entry at cap 0"
    return keys


def test_multi_indices_cover_second_order_and_mixed():
    assert len(MULTI_INDICES) == 9
    assert (2, 0, 0, 0) in MULTI_INDICES and (1, 1, 0, 0) in MULTI_INDICES


def test_memoized_route_matches_uncached(uncached_keys):
    clear_caches()
    assert _keys() == uncached_keys  # filling the tables
    assert _keys() == uncached_keys  # served from the tables
    assert all(symx.MEMOS), "a table stayed empty: fill it in _keys"


def test_memoized_route_matches_uncached_after_clear(uncached_keys):
    _keys()
    assert all(symx.MEMOS)
    clear_caches()
    assert not any(symx.MEMOS)
    assert _keys() == uncached_keys


def test_memoized_route_matches_uncached_past_the_cap(uncached_keys,
                                                      monkeypatch):
    clear_caches()
    _keys()
    assert len(symx._SIMPLIFY_MEMO) > 10 * 16
    # at cap 1 every table that holds more than one entry wraps as well
    for cap in (16, 1):
        monkeypatch.setattr(symx, "MEMO_CAP", cap)
        clear_caches()
        assert _keys() == uncached_keys
        assert all(len(table) <= cap for table in symx.MEMOS)
    clear_caches()


def test_clear_caches_empties_the_lru_tables():
    # the builder and chain-walker tables that were functools.lru_cache
    # tables before they became symx.memo tables
    from shapeinv import lattice
    clear_caches()
    osc3d.build_H4()
    ladders2d.chi_reduced(ladders2d.QNum2D(2, 1, 1))
    assert len(osc3d.build_H4.table)
    assert len(lattice.walk.table)
    clear_caches()
    assert len(osc3d.build_H4.table) == 0
    assert len(lattice.walk.table) == 0


def test_one_cache_entry_per_frequency():
    builders = (osc3d.cartesian_ladders, osc3d.build_combos,
                osc3d.build_oscillators, osc3d.build_H4, osc3d.build_Hm)
    clear_caches()
    for build in builders:
        assert build() is build(None)
        assert build(1) is build(Fraction(1)) is build(omega=Fraction(2, 2))
    # one entry for the symbolic frequency, one for omega = 1
    assert [len(b.table) for b in builders] == [2] * 5
    clear_caches()


def _module_tables():
    """(module.name, value) for every module-level name that the package
    source binds to an empty dict, `{}` or `dict()`."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "shapeinv" if path.stem == "__init__" else f"shapeinv.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            empty = (isinstance(value, ast.Dict) and not value.keys
                     or isinstance(value, ast.Call) and not value.args
                     and isinstance(value.func, ast.Name)
                     and value.func.id == "dict")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets if empty else ():
                yield (f"{path.stem}.{target.id}",
                       getattr(module, target.id))


def test_clear_caches_empties_every_memo_table():
    caches = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name in ("lru_cache", "cache", "cached_property"):
                caches.append(f"{path.stem}.{name}")
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches += [f"{path.stem} imports {alias.name}"
                           for alias in node.names
                           if alias.name in ("lru_cache", "cache",
                                             "cached_property")]
    assert not caches, "caches outside symx.memo: " + ", ".join(caches)
    tables = dict(_module_tables())
    assert "symx._CANON_MEMO" in tables and "opalg._DERIV_MEMO" in tables
    stray = [name for name, table in tables.items()
             if not any(table is memo for memo in symx.MEMOS)]
    assert not stray, "tables outside symx.MEMOS: " + ", ".join(stray)
    _keys()
    assert all(symx.MEMOS), "a table stayed empty: fill it in _keys"
    clear_caches()
    assert not any(symx.MEMOS)


def test_canonical_shares_one_tree():
    x = osc3d.psi_ladder(osc3d.QNum3D(2, -2, 1, 1))
    assert symx.canonical(x) is symx.canonical(x)
    clear_caches()
    assert symx.canonical(x) is symx.canonical(x)
    clear_caches()


# `simplify_basic` results after a cold seed-7 suite (the count is the same
# for every seed): 58 995 while `diff` built a product-rule term for every
# factor and a chain-rule product for every function, zero or not; 44 549
# while a tree that `simplify_basic` returned was simplified again when it
# came back as an input; 32 613 while the axis operators L3 and R3 were
# pinned by substitution rather than normalized at their incoming label
COLD_SUITE_SIMPLIFY_ENTRIES = 32_506


# slots x points that `Program` calls evaluate in a cold seed-7 suite:
# 627 425 while each sampled request compiled and evaluated a program of its
# own; and the most slots that one program holds, the 3-D eigen grid's
# (one 2-D eigen level would hold up to 5 868, the whole 2-D grid 13 127)
COLD_SUITE_SLOT_POINTS = 195_835
LARGEST_TABLE_SLOTS = 2_878


@pytest.fixture(scope="module")
def cold_suite():
    """After a cold seed-7 suite: the number of simplify entries, every
    tree in the two simplify tables, the slots x points that `Program`
    calls evaluated, the most slots that one program held and every
    compiled power with exponent 0."""
    call = symx.Program.__call__
    sampled = {"slot_points": 0, "slots": 0, "zero_powers": set()}

    def evaluated(cloud) -> int:
        return len(cloud.values) - cloud.values.count(None)

    def counted(program, cloud):
        before = evaluated(cloud)
        out = call(program, cloud)
        sampled["slot_points"] += (evaluated(cloud) - before) * len(cloud)
        sampled["slots"] = max(sampled["slots"], len(program.steps))
        sampled["zero_powers"].update(
            e for kind, e, _, _ in program.steps
            if kind is symx.Pow and e.exponent == 0)
        return out

    clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symx.Program, "__call__", counted)
        run_suite(SuiteConfig(seed=7))
    entries = len(symx._SIMPLIFY_MEMO)
    trees = set(symx._SIMPLIFY_MEMO.values()) | set(symx._SIMPLIFIED)
    clear_caches()
    return entries, trees, sampled


def test_cold_suite_simplify_work_can_only_shrink(cold_suite):
    entries, _, _ = cold_suite
    assert entries <= COLD_SUITE_SIMPLIFY_ENTRIES


def test_cold_suite_sampling_evaluates_each_node_once_per_cloud(cold_suite):
    _, _, sampled = cold_suite
    assert sampled["slot_points"] <= COLD_SUITE_SLOT_POINTS
    assert sampled["slots"] <= LARGEST_TABLE_SLOTS


def test_cold_suite_samples_no_power_with_exponent_zero(cold_suite):
    # a failed point is recorded only as the nan it leaves in its column,
    # and pow(nan, 0) == 1 would drop that record
    _, _, sampled = cold_suite
    assert not sampled["zero_powers"]


class _Forgetful(dict):
    """A table that stores nothing."""

    def __setitem__(self, key, value):
        pass


def test_cold_suite_simplified_trees_are_fixed_points(cold_suite, monkeypatch):
    # each is served as its own simplification, so simplifying it again
    # must return it unchanged.  No tree is served as itself here, and the
    # input-keyed memo starts empty, so each of its entries is the uncached
    # routine's result for its input: the walk is linear in the distinct
    # subtrees, not in the paths to them
    _, trees, _ = cold_suite
    assert len(trees) > 10_000
    clear_caches()
    monkeypatch.setattr(symx, "_SIMPLIFIED", _Forgetful())
    try:
        moved = [t for t in trees if symx.simplify_basic(t).key() != t.key()]
    finally:
        clear_caches()
    assert not moved, f"{len(moved)} simplified trees simplify further"


COLLECTOR_SWITCHES = ("disable", "enable", "set_threshold", "freeze")


def _collector_switches():
    """(module.function, name) for each use of a collector switch in the
    package source, named by its outermost enclosing function."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first: outer functions first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in COLLECTOR_SWITCHES
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "gc"):
                yield f"{path.stem}.{owner.get(node, '<module>')}", node.attr
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                yield f"{path.stem} imports from gc", "*"
            if isinstance(node, ast.Import):
                yield from ((f"{path.stem} imports gc as {a.asname}", "*")
                            for a in node.names
                            if a.name == "gc" and a.asname)


def test_only_collector_paused_switches_the_collector():
    uses = list(_collector_switches())
    assert ("symx.collector_paused", "disable") in uses
    stray = [f"{owner}: gc.{name}" for owner, name in uses
             if owner != "symx.collector_paused"]
    assert not stray, "collector switched outside symx.collector_paused: " \
        + ", ".join(stray)
