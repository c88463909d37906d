"""Each of the benchmark's own checkers accepts the right answer and rejects
a wrong one.  Run with `python3 -m pytest perfbench`."""
from fractions import Fraction

import checks
import workloads


def test_level_eigenvalue_from_labels():
    assert [checks.level_eigenvalue(t) for t in range(4)] == [
        0, Fraction(3, 4), 2, Fraction(15, 4)]


def test_oscillator_energy_from_labels():
    assert checks.oscillator_energy(0, 0, 0, 1) == 2
    assert checks.oscillator_energy(2, 1, 1, 2) == 12
    assert checks.oscillator_energy(1, 0, 0, Fraction(1, 2)) == Fraction(3, 2)


def test_ratio_checker_rejects_wrong_ratio():
    assert checks.ratio_ok(12 + 1e-12j, 1e-13, Fraction(12))
    assert checks.ratio_ok(1e-12, 1e-13, Fraction(0))
    assert not checks.ratio_ok(12.5, 1e-13, Fraction(12))
    assert not checks.ratio_ok(12 + 1e-3j, 1e-13, Fraction(12))
    # l(l+1) read as l^2: off by l at every level but the ground one
    assert not checks.ratio_ok(float(Fraction(15, 4) - Fraction(3, 2)), 0.0,
                               checks.level_eigenvalue(3))
    # dropping the zero-point term from the oscillator energy
    assert not checks.ratio_ok(2.0, 0.0, checks.oscillator_energy(2, 0, 0, 1))


def test_ratio_checker_rejects_non_constant_ratio():
    assert not checks.ratio_ok(6.0, 1e-4, Fraction(6))
    assert not checks.ratio_ok(0.0, 1e-6, Fraction(0))


def test_exit_checker_rejects_wrong_code():
    assert checks.exit_ok(0, checks.EXIT_ZERO)
    assert not checks.exit_ok(1, checks.EXIT_ZERO)
    assert not checks.exit_ok(0, checks.EXIT_NONZERO)
    assert not checks.exit_ok(1, checks.EXIT_USAGE)    # a false verdict
    assert not checks.exit_ok(None, checks.EXIT_ZERO)
    assert not checks.exit_ok(False, checks.EXIT_ZERO)


def test_dsl_table_covers_every_kind_of_answer():
    expected = {code for _, code in checks.DSL_TABLE}
    assert expected == {checks.EXIT_ZERO, checks.EXIT_NONZERO, checks.EXIT_USAGE}
    exprs = [e for e, _ in checks.DSL_TABLE]
    assert len(set(exprs)) == len(exprs)
    nested = "(" * checks.NESTED_DEPTH + "L3" + ")" * checks.NESTED_DEPTH
    assert dict(checks.DSL_TABLE)[nested] == checks.EXIT_USAGE


def _report(n_checks=39, n_faults=7, failing=()):
    entries = []
    for i in range(n_checks):
        name = f"fault: f{i}" if i < n_faults else f"check {i}"
        entries.append({"name": name, "pass": i not in failing})
    passed = n_checks - len(failing)
    return {"checks": entries,
            "summary": f"checks: {passed} passed / {len(failing)} failed"}


def test_suite_checker_rejects_wrong_reports():
    assert checks.suite_report_ok(_report())
    assert not checks.suite_report_ok(_report(failing=(20,)))
    assert not checks.suite_report_ok(_report(failing=(0,)))   # a fault missed
    assert not checks.suite_report_ok(_report(n_checks=38))
    assert not checks.suite_report_ok(_report(n_faults=6))
    bad_summary = _report()
    bad_summary["summary"] = "checks: 38 passed / 1 failed"
    assert not checks.suite_report_ok(bad_summary)
    assert not checks.suite_report_ok({})


def test_spectrum_labels():
    labels = workloads.spectrum_labels()
    assert len(labels) == 280
    assert sum(1 for kind, _ in labels if kind == "2d") == 140
    assert len(set(labels)) == 280
