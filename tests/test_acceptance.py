"""Acceptance gate: the nine headline guarantees, one verdict line each.

Each test prints a single [PASS]/[FAIL] line with the measured numbers and
then asserts, so a bare ``pytest -v tests/test_acceptance.py`` doubles as
the release checklist.
"""
import hashlib
import time
from fractions import Fraction

import pytest

from shapeinv import clear_caches, ladders2d, osc3d, su2
from shapeinv.ladders2d import QNum2D
from shapeinv.opalg import fourier_reduce
from shapeinv.osc3d import QNum3D
from shapeinv.suite import FAULT_PREFIX, SuiteConfig, report_json, run_suite
from shapeinv.verify import (SamplePlan, check_op_zero, default_battery,
                             worst_of)


def _verdict(capsys, num: int, ok: bool, text: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture
def cold_caches():
    """Empty every memo before a timed criterion, so its budget means the
    same thing whatever ran earlier in the process."""
    clear_caches()


@pytest.fixture(scope="module")
def full_suite_runs():
    cfg = SuiteConfig(seed=7)
    clear_caches()  # time the battery cold, as cold_caches does
    t0 = time.perf_counter()
    first = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    second = run_suite(cfg)
    return first, second, elapsed


def test_criterion_1_bracket_table(cold_caches, capsys):
    plan = SamplePlan(seed=101, count=50)
    fns = default_battery("q")
    gens = su2.build_raw_generators()
    t0 = time.perf_counter()
    residuals = su2.commutator_residuals(gens)
    worst = 0.0
    all_pass = True
    for label, res, refs in residuals:
        rep = check_op_zero(res, plan, reference_ops=refs, testfns=fns,
                            tol=1e-10, name=label)
        worst = max(worst, rep.relative)
        all_pass = all_pass and rep.passed
    elapsed = time.perf_counter() - t0
    ok = all_pass and len(residuals) == 15 and len(fns) >= 5 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"15 bracket residuals at 1e-10 on 50 points x {len(fns)} "
             f"probes in {elapsed:.2f}s (worst relative {worst:.2e})")


def test_criterion_2_quadratic_invariant(capsys):
    gens = su2.build_raw_generators()
    built = su2.casimir(gens)
    ref = su2.casimir_reference()
    rep = check_op_zero(built - ref, SamplePlan(seed=102, count=32),
                        reference_ops=(built, ref), tol=1e-12,
                        name="closed form")
    routes = su2.quadratic(gens).same_operator(su2.quadratic_right(gens))
    structural = built.same_operator(ref)
    reduced = fourier_reduce(built, "q").same_operator(
        su2.casimir_reduced_reference())
    ok = rep.passed and routes and structural and reduced
    _verdict(capsys, 2, ok,
             f"invariant matches its closed form at 1e-12 (relative "
             f"{rep.relative:.2e}), identically from either sector, and its "
             f"lattice reduction agrees term for term")


def test_criterion_3_conjugation_offset(capsys):
    b1 = su2.build_Hq(SamplePlan(seed=103, count=100))
    b2 = su2.build_Hq(SamplePlan(seed=203, count=100))
    v1 = complex(b1.offset.data["value"])
    v2 = complex(b2.offset.data["value"])
    stable = abs(v1 - v2) <= 1e-9
    ok = (b1.offset.passed and b2.offset.passed and stable
          and b1.reference.same_operator(b1.derived))
    _verdict(capsys, 3, ok,
             f"conjugation offset measured on 2 x 100 points: "
             f"{v1.real:.3e} vs {v2.real:.3e}, constant to 1e-9, and the "
             f"conjugated operator matches the potential form exactly")


def test_criterion_4_two_angle_eigen_grid(cold_caches, capsys):
    plan = SamplePlan(seed=104, count=12)
    t0 = time.perf_counter()
    worst = 0.0
    all_pass = True
    states = 0
    degen_ok = True
    for twol in range(7):
        for qn in ladders2d.valid_states(twol):
            states += 1
            for rep in ladders2d.verify_eigen(qn, plan, tol=1e-8):
                worst = max(worst, rep.relative)
                all_pass = all_pass and rep.passed
        table = ladders2d.degeneracy_enumeration(twol)
        for q in range(-twol, twol + 1):
            degen_ok = degen_ok and (
                ladders2d.degeneracy(twol, q) == table.get(q, []))
    elapsed = time.perf_counter() - t0
    ok = all_pass and degen_ok and states == 140 and elapsed < 30.0
    _verdict(capsys, 4, ok,
             f"{states} states (doubled level <= 6), all eigen relations at "
             f"1e-8 (worst {worst:.2e}) and degeneracies match enumeration, "
             f"in {elapsed:.1f}s")


def test_criterion_5_two_angle_ladders(capsys):
    plan = SamplePlan(seed=105, count=10)
    ladder_ok = True
    worst = 0.0
    for twol in range(5):
        rep = ladders2d.verify_ladder_actions(twol, plan, tol=1e-8)
        ladder_ok = ladder_ok and rep.passed
        worst = max(worst, rep.relative)
    product_ok = True
    for twol in range(7):
        for qn in ladders2d.valid_states(twol):
            if qn.q + 2 <= twol - abs(qn.m):
                product_ok = product_ok and (
                    ladders2d.pair_scalar_sq(qn, ladders2d.Q_ROUND_TRIP, True)
                    == ladders2d.N_closed(twol, qn.q, qn.m))
            if abs(qn.m + 2) <= twol - abs(qn.q):
                product_ok = product_ok and (
                    ladders2d.pair_scalar_sq(qn, ladders2d.M_ROUND_TRIP, False)
                    == ladders2d.E_measured_closed(twol, qn.q, qn.m) ** 2)
    top = QNum2D(6, 6, 0)
    edges = ladders2d.annihilation_reports(top, plan, 1e-8)
    edge_ok = len(edges) == 4 and all(rep.passed for rep in edges)
    ok = ladder_ok and product_ok and edge_ok
    _verdict(capsys, 5, ok,
             f"one-step ratios at 1e-8 through doubled level 4 (worst "
             f"{worst:.2e}), coefficient products equal closed forms through "
             f"doubled level 6, and every raiser kills the top state")


def test_criterion_6_oscillator_algebra(capsys):
    plan = SamplePlan(seed=106, count=16)

    def worst(residuals):
        return worst_of([
            check_op_zero(res, plan, reference_ops=refs, tol=1e-10, name=label)
            for label, res, refs in residuals], 1e-10)

    comm = worst(osc3d.commutator_residuals())
    structural = all(res.normalized().is_zero()
                     for reduced in (True, False)
                     for _, res, _ in osc3d.commutator_residuals(
                         reduced=reduced))
    fact_sym = all(fact.same_operator(ham) for fact, ham in (
        osc3d.factorization(reduced, 2) for reduced in (True, False)))
    number, ham = osc3d.factorization(True, 2)
    fact = worst([("factorization", number - ham, (number, ham))])
    inter_res = osc3d.intertwining_residuals()
    inter_structural = all(res.normalized().is_zero()
                           for _, res, _ in inter_res)
    inter = worst(inter_res)
    ok = (comm.passed and structural and fact_sym and fact.passed
          and len(inter_res) == 4 and inter_structural and inter.passed)
    _verdict(capsys, 6, ok,
             f"canonical brackets at 1e-10 (relative {comm.relative:.2e}), "
             f"factorization exact uniformly in the symbolic label, all 4 "
             f"intertwinings hold (relative {inter.relative:.2e})")


def test_criterion_7_oscillator_eigenfunctions(capsys):
    plan = SamplePlan(seed=107, count=8)
    worst = 0.0
    all_pass = True
    states = 0
    for w in (Fraction(1), Fraction(2)):
        for n in range(5):
            for n3 in range(5 - n):
                for n4 in range(5 - n - n3):
                    for m in range(-n, n + 1, 2):
                        qn = QNum3D(n, m, n3, n4, w)
                        states += 1
                        rep = osc3d.verify_eigen(qn, plan, closed=True,
                                                 tol=1e-8)
                        worst = max(worst, rep.relative)
                        all_pass = all_pass and rep.passed
    ratio_ok = True
    for n in range(4):
        for m in range(-n, n + 1, 2):
            rep = osc3d.ladder_closed_ratio(QNum3D(n, m), plan, tol=1e-8)
            ratio_ok = ratio_ok and rep.passed
    pair_ok = True
    for qn in (QNum3D(2, 0), QNum3D(3, 1), QNum3D(3, -3), QNum3D(4, 2)):
        for rep in osc3d.verify_pair_eigen(qn, plan, tol=1e-8):
            pair_ok = pair_ok and rep.passed
    ok = all_pass and ratio_ok and pair_ok
    _verdict(capsys, 7, ok,
             f"{states} closed-form eigenchecks at 1e-8 over two frequencies "
             f"(worst {worst:.2e}); ladder states proportional to closed "
             f"forms through level 3; pair products carry (n+m)(n-m+2)/4")


def test_criterion_8_fault_injections(full_suite_runs, capsys):
    first, _, _ = full_suite_runs
    faults = [e for e in first["checks"]
              if e["name"].startswith(FAULT_PREFIX)]
    detected = [e for e in faults if e["pass"]]
    ok = len(faults) >= 6 and len(detected) == len(faults)
    _verdict(capsys, 8, ok,
             f"{len(faults)} deliberate faults injected, "
             f"{len(detected)} detected by the battery")


def test_criterion_9_reproducible_suite(full_suite_runs, capsys):
    first, second, elapsed = full_suite_runs
    identical = report_json(first) == report_json(second)
    all_pass = all(e["pass"] for e in first["checks"])
    ok = identical and all_pass and elapsed < 60.0
    _verdict(capsys, 9, ok,
             f"full battery ({len(first['checks'])} checks) passed in "
             f"{elapsed:.1f}s; rerun with the same seed is byte-identical")


def test_suite_report_digest_seed_7(full_suite_runs):
    """The seed-7 report bytes are pinned, so a change behind the suite
    cannot move a single residual digit unnoticed.  The digest was recorded
    on Python 3.11.7 with the x86-64 libm; another libm may round the last
    bits of a residual differently."""
    first, _, _ = full_suite_runs
    digest = hashlib.sha256(report_json(first).encode()).hexdigest()
    assert digest == (
        "7f4817f95d6bbf0848fe262da060cba30f9079a66b1cb1d95574b7a68cee7e0b")


@pytest.mark.parametrize("seed, digest", [
    (0, "5a6d84ee1b1b7499d241caa7e22f0cea136a7cb10323e2c0c421b94bb4c383e5"),
    (12345, "a1d485088ff70e029fc38bd0f51b8853cb9e8852c842c149c3b7b90f4cf99a4c"),
])
def test_suite_report_digest_at_other_seeds(seed, digest):
    """The two other pinned seeds, recorded as the seed-7 digest was."""
    report = run_suite(SuiteConfig(seed=seed))
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == digest
