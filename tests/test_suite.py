"""Registered battery: registry hygiene, sector filters, reproducibility."""
import ast
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import shapeinv
from shapeinv import ladders2d, osc3d, suite, verify
from shapeinv.opalg import OpError
from shapeinv.symx import Const, Mul, SymxError
from shapeinv.suite import (
    FAULT_PREFIX, SECTORS, SuiteConfig, render_text, report_json, run_suite,
    _registry,
)

SMALL = SuiteConfig(seed=3, points=4)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL)


ROUTES = ("structural", "sampled", "both")


def test_registry_hygiene(monkeypatch):
    entries = _registry()
    names = [name for name, _, _, _ in entries]
    assert len(names) == len(set(names))
    assert all(sector in SECTORS for _, _, sector, _ in entries)
    assert all(route in ROUTES for _, _, _, route, _ in suite._CHECKS)
    faults = [(name, sector) for name, _, sector, _ in entries
              if name.startswith(FAULT_PREFIX)]
    assert len(faults) >= 6
    # every sector carries at least one negative control
    assert {sector for _, sector in faults} == set(SECTORS)
    # a fault entry is one that carries the shared paper_ref, and only one
    assert all(name.startswith(FAULT_PREFIX) == (ref == suite.FAULT_REF)
               for name, ref, _, _ in entries)
    # each check is the suite attribute its function's name names, read
    # when `_registry` is called: a stub or a tracer bound there runs
    for index, (_, _, _, fn) in enumerate(entries):
        assert getattr(suite, fn.__name__) is fn

        def stub(cfg):
            return None

        monkeypatch.setattr(suite, fn.__name__, stub)
        assert _registry()[index][3] is stub


def _string_literals(path: Path) -> Counter:
    return Counter(node.value for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str))


def test_each_check_name_is_written_once():
    """A check's name and the fault entries' shared paper_ref occur once
    in the package, as declared: no check function names its own entry."""
    found = Counter()
    for path in Path(shapeinv.__file__).parent.glob("*.py"):
        found += _string_literals(path)
    names = [name for name, _, _, _ in _registry()]
    assert len(names) == 39
    assert {name: found[name] for name in names} == dict.fromkeys(names, 1)
    assert found[suite.FAULT_REF] == 1


# objects that only one route decides, a bracket table's two entries taken
# as one object; this set may shrink, never grow
ONE_ROUTE = frozenset({
    # exact comparisons only
    "invariant from either sector", "invariant lattice reduction",
    "reduced generators closed forms", "half-power weight similarity",
    "weight-conjugated generators", "level degeneracies",
    "pair-ladder scalars", "pair-order exchange identity",
    "cartesian gradient duality", "oscillator angular block",
    "oscillator Hamiltonian forms", "transcription deviations isolated",
    "ground-state annihilation", "spectrum bookkeeping",
    # sampled residuals only
    "2-D eigen grid", "2-D one-step ladder coefficients",
    "edge annihilations",
    "3-D eigen grid (closed form)", "3-D ladder vs closed form",
    "3-D one-step ladder coefficients", "ascent pair target",
    "cartesian crosschecks",
})


def test_objects_with_one_route_are_pinned():
    routes = {}
    for name, _, _, route, _ in suite._CHECKS:
        if not name.startswith(FAULT_PREFIX):
            obj = re.sub(r" \((structural|sampled)\)$", "", name)
            routes.setdefault(obj, set()).update(
                ("structural", "sampled") if route == "both" else (route,))
    assert ONE_ROUTE <= set(routes)
    assert routes["su2 bracket table"] == {"structural", "sampled"}
    one_route = {obj for obj, found in routes.items() if len(found) == 1}
    assert one_route <= ONE_ROUTE, sorted(one_route - ONE_ROUTE)


def test_each_check_takes_its_declared_route(monkeypatch):
    """The route of each check is computed from what it produced and must
    be the declared one: "sampled" when it drew points through
    `verify._sample`, "structural" when its report has an exact half (an
    aggregate keeps its members'), "both" when both hold."""
    drawn = []
    sample = verify._sample

    def counted(*args):
        drawn.append(args)
        return sample(*args)

    monkeypatch.setattr(verify, "_sample", counted)
    declared, computed = {}, {}
    for (name, _, _, check), (*_, route, _) in zip(_registry(),
                                                   suite._CHECKS):
        drawn.clear()
        rep = check(SMALL)
        found = {"structural"} if rep.exact is not None else set()
        found |= {"sampled"} if drawn else set()
        declared[name] = route
        computed[name] = "both" if len(found) == 2 else "".join(found)
    assert len(computed) == 39
    assert computed == declared


def test_reduced_run_all_pass(small_report):
    checks = small_report["checks"]
    assert len(checks) == len(_registry())
    bad = [e["name"] for e in checks if not e["pass"]]
    assert not bad, bad
    assert small_report["summary"] == f"checks: {len(checks)} passed / 0 failed"


def test_report_schema(small_report):
    assert set(small_report) == {"suite", "seed", "tolerances", "checks",
                                 "summary"}
    assert small_report["suite"] == "shapeinv"
    assert small_report["seed"] == 3
    assert set(small_report["tolerances"]) == {"operator", "eigen", "constant"}
    for entry in small_report["checks"]:
        assert set(entry) == {"name", "paper_ref", "pass",
                              "relative_residual", "notes"}
        assert isinstance(entry["relative_residual"], float)


def test_report_json_round_trips(small_report):
    text = report_json(small_report)
    assert text.endswith("\n")
    assert json.loads(text) == small_report


def test_render_text_layout(small_report):
    text = render_text(small_report)
    lines = text.splitlines()
    assert lines[0] == "suite: shapeinv (seed 3)"
    assert lines[-1] == small_report["summary"]
    assert all(line.startswith("[PASS]") or line.startswith("[FAIL]")
               for line in lines[1:-1])


def test_sector_filter_and_label():
    report = run_suite(SMALL, sectors=("2d", "su2"))
    # the label lists sectors in registry order, not request order
    assert report["suite"] == "shapeinv[su2+2d]"
    wanted = {name for name, _, sector, _ in _registry()
              if sector in ("su2", "2d")}
    assert {e["name"] for e in report["checks"]} == wanted
    assert all(e["pass"] for e in report["checks"])


def test_unknown_sector_rejected():
    with pytest.raises(ValueError, match="unknown suite sectors"):
        run_suite(SMALL, sectors=("2d", "bogus"))


def test_same_config_reports_are_byte_identical():
    cfg = SuiteConfig(seed=11, points=4)
    a = report_json(run_suite(cfg, sectors=("2d",)))
    b = report_json(run_suite(cfg, sectors=("2d",)))
    assert a == b


def test_config_coercion():
    with pytest.raises(TypeError):
        run_suite({"seed": 2, "points": 4}, sectors=("2d",))
    with pytest.raises(TypeError):
        run_suite(42)


@pytest.mark.parametrize("error", [OpError("bad term"), SymxError("bad form"),
                                   ZeroDivisionError("division by zero"),
                                   RecursionError("too deep")],
                         ids=lambda exc: type(exc).__name__)
def test_a_raising_check_is_a_failed_entry(error, monkeypatch):
    name, _, _, fn = next(e for e in _registry() if e[2] == "2d")

    def broken(cfg):
        raise error

    monkeypatch.setattr(suite, fn.__name__, broken)
    report = run_suite(SMALL, sectors=("2d",))
    entries = {e["name"]: e for e in report["checks"]}
    assert len(entries) == sum(1 for e in _registry() if e[2] == "2d") > 1
    assert entries[name]["pass"] is False
    assert entries[name]["relative_residual"] == 1.0
    assert entries[name]["notes"] == f"error: {type(error).__name__}: {error}"
    assert all(e["pass"] for n, e in entries.items() if n != name)
    assert report["summary"] == f"checks: {len(entries) - 1} passed / 1 failed"


def _pair_energy_plus_one(monkeypatch):
    scalar = osc3d.pair_energy
    monkeypatch.setattr(osc3d, "pair_energy", lambda n, m: scalar(n, m) + 1)


def _reconstruction_doubled(monkeypatch):
    rebuild = ladders2d._reconstruction
    monkeypatch.setattr(ladders2d, "_reconstruction",
                        lambda *args: Mul(Const(2), rebuild(*args)))


@pytest.mark.parametrize("check, mutate", [
    ("_chk_pair3d", _pair_energy_plus_one),
    ("_chk_reconstruction", _reconstruction_doubled),
])
def test_an_aggregate_fails_with_a_member_failed_on_its_exact_half(
        check, mutate, monkeypatch):
    # the mutant's members fail on their exact half, at residuals far below
    # the tolerance: the aggregate must keep their verdict
    cfg = SuiteConfig(seed=7)
    healthy = getattr(suite, check)(cfg)
    assert healthy.passed and healthy.relative < 1e-12
    mutate(monkeypatch)
    rep = getattr(suite, check)(cfg)
    assert not rep.passed
    assert rep.relative == healthy.relative
