"""The package's own code leaves no reference cycles behind, so the cyclic
collector can sit out a run.

A nested function that calls itself is a cycle (the function holds its
closure cell, the cell holds the function), and it keeps everything it
captured alive until the cyclic collector runs.  The tests below pause the
collector, run package code and then ask the collector for what it would
free: no function of the package may be among it after an application, a
composition, a sampled check and a render, and nothing at all after an su(2)
suite or a CLI check.  That is why `run_suite` and `cli.main` may run with
the collector paused (`symx.collector_paused`); the last tests pin that
both leave the collector's state as they found it.
"""
import gc
import types
from collections import Counter

import pytest

from shapeinv import cli, clear_caches, su2, suite
from shapeinv.suite import SuiteConfig, run_suite
from shapeinv.symx import Const, Mul, collector_paused, render
from shapeinv.verify import (IdentityReport, SamplePlan, check_proportional,
                             default_battery)


def _exercise():
    gens = su2.build_reduced_generators()  # lattice-shift operators
    f = default_battery("q")[3]
    applied = gens.Lp.apply(f)
    composed = gens.Lp @ gens.Lm
    check_proportional(Mul(Const(3), f), f, SamplePlan(seed=1, count=8))
    render(applied)
    composed.render()


def _garbage_after(run) -> list:
    """What the collector would free after `run`, with the collector paused
    throughout and the caches cleared first, so that the kernels run
    instead of hitting a memo.  The CLI parser is built before the pause:
    argparse leaves the formatters it makes while building a parser in
    reference cycles, once per process since the parser is memoized."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    earlier = list(gc.garbage)
    clear_caches()
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        run()
        gc.collect()
        return gc.garbage[len(earlier):]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = earlier
        if enabled:
            gc.enable()
        clear_caches()


def test_package_paths_leave_no_reference_cycles():
    found = sorted({f"{g.__module__}.{g.__qualname__}"
                    for g in _garbage_after(_exercise)
                    if isinstance(g, types.FunctionType)
                    and (g.__module__ or "").startswith("shapeinv")})
    assert not found, "functions left in reference cycles: " + ", ".join(found)


@pytest.mark.parametrize("run", [
    lambda: run_suite(SuiteConfig(seed=7), sectors={"su2"}),
    lambda: cli.main(["check", "[Lp, Lm] - 2*L3"]),
], ids=["su2 suite", "cli check"])
def test_a_paused_run_leaves_no_garbage(run, capsys):
    kinds = Counter(type(g).__name__ for g in _garbage_after(run))
    assert not kinds, f"objects left in reference cycles: {dict(kinds)}"


# -- the collector's state ----------------------------------------------------

@pytest.fixture
def su2_registry(monkeypatch):
    """The registry cut to its su(2) checks plus one probe, which records
    whether the collector is on while the checks run."""
    seen = []
    entries = [e for e in suite._registry() if e[2] == "su2"]

    def probe(cfg):
        seen.append(gc.isenabled())
        return IdentityReport("collector probe", 0.0, 1.0, 0.0)

    entries.append(("collector probe", "", "su2", probe))
    monkeypatch.setattr(suite, "_registry", lambda: entries)
    return seen


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's own errors
        return exc.code


RUNS = {
    "run_suite": (lambda: run_suite(SuiteConfig(seed=7))["summary"],
                  "checks: 13 passed / 0 failed"),
    "cli check": (lambda: _exit_code(["check", "[Lp, Lm] - 2*L3"]), 0),
    # the nested pause: the command calls run_suite
    "cli suite": (lambda: _exit_code(["suite", "--seed", "7"]), 0),
    "cli usage error": (lambda: _exit_code(["check", "Foo(1)"]), 2),
    "argparse exit": (lambda: _exit_code(["check"]), 2),
}


@pytest.mark.parametrize("enabled, frozen",
                         [(True, False), (False, False), (True, True)],
                         ids=["from enabled", "from disabled", "from frozen"])
@pytest.mark.parametrize("name", RUNS)
def test_runs_leave_the_collector_as_they_found_it(name, enabled, frozen,
                                                   su2_registry, capsys):
    run, expected = RUNS[name]
    was = gc.isenabled()
    if frozen:
        gc.freeze()
    try:
        settings = gc.get_threshold(), gc.get_freeze_count()
        gc.enable() if enabled else gc.disable()
        result = run()
        after = gc.isenabled(), (gc.get_threshold(), gc.get_freeze_count())
    finally:
        gc.enable() if was else gc.disable()
        if frozen:
            gc.unfreeze()
    assert result == expected
    assert after == (enabled, settings)
    assert (settings[1] > 0) == frozen
    # the checks ran with the collector paused
    assert su2_registry == ([False] if "suite" in name else [])


def test_the_pause_ends_without_a_collection():
    """Objects made during the pause leave it in the oldest generation, so
    neither its end nor the next few allocations start a collection."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()[0]
    was = gc.isenabled()
    assert gc.get_freeze_count() == 0
    gc.enable()
    gc.collect()  # the youngest generation's count starts at 0
    gc.callbacks.append(record)
    try:
        with collector_paused():
            made = [[] for _ in range(3 * threshold)]
        more = [[] for _ in range(threshold // 4)]
    finally:
        gc.callbacks.remove(record)
        gc.enable() if was else gc.disable()
    assert len(made) > threshold > len(more)
    assert not starts, f"collections of generations {starts}"
