"""The three workloads: their inputs, made from the seed, and one pass over
them.

A pass returns a `PassResult`; the worker times a cold pass in a fresh
process and then warm passes over the same inputs.  Every operation's
output is judged by `checks`, which does not consult the package.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction
from typing import NamedTuple

import checks

NAMES = ("suite", "spectrum", "dsl-check")

# sample points per spectrum state: enough that numeric evaluation, not the
# symbolic application, is most of the pass
SPECTRUM_POINTS = 300
SPECTRUM_TWOL_MAX = 6       # 2-D: doubled level <= 6, 140 states
SPECTRUM_N_MAX = 4          # 3-D: n + n3 + n4 <= 4, 70 states per frequency
SPECTRUM_OMEGAS = (1, 2)


class PassResult(NamedTuple):
    attempted: int
    failed: int
    correct: bool
    digest: str        # what must be identical between passes and runs


def _derived_seed(seed: int, label: str) -> int:
    return int.from_bytes(
        hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


# -- suite ---------------------------------------------------------------------

def _suite_inputs(seed: int):
    from shapeinv.suite import SuiteConfig
    return SuiteConfig(seed=seed)


def _suite_pass(config) -> PassResult:
    from shapeinv.suite import report_json, run_suite
    try:
        report = run_suite(config)
    except Exception:  # the whole battery aborted: no verdict at all
        return PassResult(checks.SUITE_CHECKS, checks.SUITE_CHECKS, False, "")
    errored = sum(1 for c in report["checks"]
                  if str(c.get("notes", "")).startswith("error:"))
    digest = hashlib.sha256(report_json(report).encode()).hexdigest()
    return PassResult(checks.SUITE_CHECKS, errored,
                      checks.suite_report_ok(report), digest)


# -- spectrum --------------------------------------------------------------------

def spectrum_labels() -> list:
    """("2d", (twol, q, m)) for every state with twol <= 6, then
    ("3d", (n, m, n3, n4, omega)) for n + n3 + n4 <= 4 at each frequency."""
    out = []
    for twol in range(SPECTRUM_TWOL_MAX + 1):
        for q in range(-twol, twol + 1):
            top = twol - abs(q)
            for m in range(-top, top + 1, 2):
                out.append(("2d", (twol, q, m)))
    for omega in SPECTRUM_OMEGAS:
        for n in range(SPECTRUM_N_MAX + 1):
            for m in range(-n, n + 1, 2):
                for n3 in range(SPECTRUM_N_MAX - n + 1):
                    for n4 in range(SPECTRUM_N_MAX - n - n3 + 1):
                        out.append(("3d", (n, m, n3, n4, omega)))
    return out


def _spectrum_inputs(seed: int):
    from shapeinv.ladders2d import QNum2D
    from shapeinv.osc3d import QNum3D
    from shapeinv.verify import SamplePlan
    out = []
    for kind, lab in spectrum_labels():
        if kind == "2d":
            qn = QNum2D(*lab)
            expected = checks.level_eigenvalue(lab[0])
        else:
            n, m, n3, n4, omega = lab
            qn = QNum3D(n, m, n3, n4, Fraction(omega))
            expected = checks.oscillator_energy(n, n3, n4, omega)
        plan = SamplePlan(seed=_derived_seed(seed, f"{kind}{lab}"),
                          count=SPECTRUM_POINTS)
        out.append((kind, qn, plan, expected))
    return out


def _spectrum_pass(states) -> PassResult:
    from shapeinv import ladders2d, osc3d, su2
    from shapeinv.verify import check_proportional
    failed, correct = 0, True
    for kind, qn, plan, expected in states:
        try:
            if kind == "2d":
                ham = Fraction(1, 4) * su2.hq_reference().subs_param(qn.q)
                psi = ladders2d.chi_tilde(qn)
            else:
                ham = osc3d.build_Hm(qn.omega).at_incoming(qn.m)
                psi = osc3d.psi_closed(qn)
            rep = check_proportional(ham.apply(psi), psi, plan)
        except Exception:
            failed += 1
            continue
        correct = correct and checks.ratio_ok(rep.data["ratio"], rep.max_abs,
                                              expected)
    return PassResult(len(states), failed, correct, "")


# -- dsl-check ---------------------------------------------------------------------

def _dsl_inputs(seed: int):
    return [(["check", expr, "--seed", str(_derived_seed(seed, f"dsl{i}"))],
             expected)
            for i, (expr, expected) in enumerate(checks.DSL_TABLE)]


def _dsl_pass(cases) -> PassResult:
    from shapeinv import cli
    failed, correct = 0, True
    for argv, expected in cases:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # e.g. RecursionError from the nested input
            failed += 1
            continue
        correct = correct and checks.exit_ok(code, expected)
    return PassResult(len(cases), failed, correct, "")


_WORKLOADS = {
    "suite": (_suite_inputs, _suite_pass),
    "spectrum": (_spectrum_inputs, _spectrum_pass),
    "dsl-check": (_dsl_inputs, _dsl_pass),
}


def prepare(name: str, seed: int):
    """Import the layers the workload uses and make its inputs."""
    return _WORKLOADS[name][0](seed)


def run_pass(name: str, inputs) -> PassResult:
    return _WORKLOADS[name][1](inputs)
