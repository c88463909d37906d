"""Randomized-evaluation engine: plans, residual reports, degeneracy guards.

The determinism contract is load-bearing (byte-identical suite reports),
so the point clouds are checked for stability both in-process and across
interpreter invocations with different string-hash randomization.
"""
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import shapeinv
from shapeinv import su2, symx
from shapeinv.symx import (
    Add, Cloud, Const, Cos, Exp, Mul, Pow, Sin, IMAG, ONE, PHI, R, THETA,
)
from shapeinv.opalg import DiffOp, OpTerm
from shapeinv.verify import (
    DEFAULT_BOXES, TOL_EXACT, TOL_OPERATOR, IdentityReport, PlanDegenerate,
    SamplePlan, check_eigen, check_op_zero, check_proportional, check_zero,
    _eval_many, default_battery, measure_constant, worst_of,
)

from oracles import sample_points


def test_plan_is_deterministic_per_seed():
    a = SamplePlan(seed=5, count=9).points(("q",))
    b = SamplePlan(seed=5, count=9).points(("q",))
    assert a == b
    c = SamplePlan(seed=6, count=9).points(("q",))
    assert a != c


def test_plan_extras_change_the_stream_but_not_validity():
    pts = SamplePlan(seed=1, count=20).points(("q", "omega", "zeta"))
    for b in pts:
        assert set(b) == {"theta", "psi", "phi", "r", "q", "omega", "zeta"}
        assert b["q"] == int(b["q"])          # integer pool
        assert b["omega"] in (1.0, 2.0, 0.5)  # frequency pool
        lo, hi = DEFAULT_BOXES["theta"]
        assert lo <= b["theta"] <= hi


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")


def test_plan_stable_under_hash_randomization():
    # fresh interpreters with different PYTHONHASHSEED must sample
    # identical clouds, otherwise report bytes drift between CLI runs
    prog = ("from shapeinv.verify import SamplePlan;"
            "print(repr(SamplePlan(seed=3, count=4).points(('q','omega'))))")
    outs = []
    for hs in ("1", "99"):
        env = dict(os.environ, PYTHONHASHSEED=hs, PYTHONPATH=_SRC)
        outs.append(subprocess.run(
            [sys.executable, "-c", prog], env=env, capture_output=True,
            text=True, check=True).stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("extras", [(), ("m",), ("q", "omega"), ("zeta",),
                                    ("r", "m", "m")])
def test_plan_draws_the_cloud_of_the_replaced_loop(extras):
    for seed, count in ((0, 1), (5, 9), (12345, 32), (7, 300)):
        plan = SamplePlan(seed=seed, count=count)
        assert repr(plan.points(extras)) == repr(sample_points(plan, extras))


def test_plan_rejects_empty():
    with pytest.raises(ValueError):
        SamplePlan(seed=0, count=0)


def _column(col):
    """A stand-in program whose one output has the values col."""
    return lambda cloud: [col]


def test_a_value_past_the_float_range_is_skipped_not_raised():
    nan = float("nan")
    # finite parts whose modulus overflows, nan, a blow-up, and the bound
    col = [1 + 0j, complex(1.3e308, 1.3e308), complex(nan, nan), 2e100 + 0j,
           complex(0.0, 1e100), -2j]
    pts = [{"i": i} for i in range(len(col))]
    values, kept, skipped = _eval_many(_column(col), Cloud(pts))
    assert skipped == 3
    assert kept == [pts[0], pts[4], pts[5]]
    assert values == [[1 + 0j, complex(0.0, 1e100), -2j]]
    # the column's moduli sum past 1e100, but no value's modulus does
    assert _eval_many(_column([6e99 + 0j] * 2), Cloud(pts[:2]))[2] == 0


def test_check_zero_trig_identity():
    e = Add(Pow(Sin(THETA), Fraction(2)), Pow(Cos(THETA), Fraction(2)),
            Const(-1))
    rep = check_zero(e, SamplePlan(seed=0, count=32), reference=(ONE,),
                     tol=TOL_OPERATOR, name="zero-check")
    assert rep.passed and rep.relative <= 1e-15


def test_check_zero_negative_control():
    rep = check_zero(Add(Sin(THETA), Mul(Const(-1), THETA)),
                     SamplePlan(seed=0, count=32), reference=[THETA],
                     tol=TOL_OPERATOR, name="zero-check")
    assert not rep.passed


def test_check_zero_reference_cancelling_to_rounding_is_degenerate():
    # sin^2 + cos^2 - 1 samples to rounding level, not to 0: as a scale it
    # would turn sin(theta) into a relative residual of order 1e15
    trig_zero = Add(Pow(Sin(THETA), 2), Pow(Cos(THETA), 2), Const(-1))
    rep = check_zero(Sin(THETA), SamplePlan(seed=0, count=24),
                     reference=[trig_zero], tol=TOL_OPERATOR,
                     name="zero-check")
    assert rep.notes == "reference scale degenerate; using absolute residual"
    assert rep.scale == 1.0 and rep.relative == rep.max_abs < 1.0
    assert not rep.passed


def test_check_zero_skip_budget():
    # a pole inside every sampled box: 1/(sin(theta) - sin(theta)) never
    # evaluates, so the plan must be declared degenerate rather than pass
    bad = Pow(Add(Sin(THETA), Mul(Const(-1), Sin(THETA))), Fraction(-1))
    with pytest.raises(PlanDegenerate):
        check_zero(bad, SamplePlan(seed=0, count=16), reference=(ONE,),
                   tol=TOL_OPERATOR, name="zero-check")


def test_check_proportional_constant_ratio():
    rep = check_proportional(Mul(Const(2), Sin(THETA)), Sin(THETA),
                             SamplePlan(seed=0, count=32))
    assert rep.passed
    assert abs(rep.data["ratio"] - 2.0) <= 1e-12


def test_check_proportional_negative_control():
    rep = check_proportional(Sin(THETA), Cos(THETA),
                             SamplePlan(seed=0, count=32))
    assert not rep.passed


def test_check_proportional_undefined_divisor():
    with pytest.raises(PlanDegenerate, match="proportionality undefined"):
        check_proportional(Sin(THETA), Const(0), SamplePlan(seed=0, count=16))


def test_measure_constant_reports_value():
    e = Const(Fraction(7, 4))
    rep = measure_constant(e, SamplePlan(seed=2, count=24), "constant")
    assert rep.passed
    assert abs(rep.data["value"] - 1.75) <= 1e-12
    rep2 = measure_constant(Sin(THETA), SamplePlan(seed=2, count=24),
                            "constant")
    assert not rep2.passed


def test_relative_residual_definition():
    rep = IdentityReport("x", 1e-9, 10.0, 1e-8)
    assert math.isclose(rep.relative, 1e-10)
    assert rep.passed
    # floor keeps zero-scale reports meaningful
    rep0 = IdentityReport("y", 0.0, 0.0, 1e-12)
    assert rep0.passed and rep0.relative == 0.0


def test_tolerance_monotonicity():
    # passing at tol t must imply passing at any looser t' > t
    for max_abs in (0.0, 1e-12, 1e-9, 1e-3):
        prev = None
        for tol in (1e-10, 1e-8, 1e-4, 1.0):
            rep = IdentityReport("t", max_abs, 1.0, tol)
            if prev is not None and prev.passed:
                assert rep.passed
            prev = rep


def test_report_serializes_complex_values():
    rep = check_proportional(Mul(IMAG, Sin(THETA)), Sin(THETA),
                             SamplePlan(seed=0, count=16))
    doc = rep.as_dict()
    json.dumps(doc)  # must not raise
    assert doc["data"]["ratio"] == [0.0, 1.0]


def test_one_rule_judges_both_halves():
    """A report fails when its exact half is False or its sampled residual
    is above its tolerance; an exact-only report states 0 or 1 on unit
    scale at TOL_EXACT."""
    holds, differs = (IdentityReport("e", exact=ok) for ok in (True, False))
    assert holds.passed and not differs.passed
    assert [(r.max_abs, r.scale, r.relative, r.tol, r.sampled)
            for r in (holds, differs)] == [(0.0, 1.0, 0.0, TOL_EXACT, False),
                                           (1.0, 1.0, 1.0, TOL_EXACT, False)]
    for exact, max_abs, passed in [(None, 1e-9, True), (None, 1e-7, False),
                                   (True, 1e-9, True), (True, 1e-7, False),
                                   (False, 1e-15, False),
                                   (None, math.nan, False)]:
        rep = IdentityReport("s", max_abs, 1.0, 1e-8, exact=exact)
        assert (rep.sampled, rep.passed) == (True, passed), (exact, max_abs)
    with pytest.raises(ValueError, match="an exact or a sampled half"):
        IdentityReport("neither")


def test_note_is_a_new_report_with_the_exact_half_folded():
    rep = IdentityReport("s", 1e-9, 2.0, 1e-8, worst="w", notes="first",
                         data={"k": 1})
    noted = rep.note("second", exact=False)
    assert (rep.notes, rep.exact, rep.passed) == ("first", None, True)
    assert (noted.notes, noted.exact, noted.passed) == ("first; second",
                                                        False, False)
    assert noted.as_dict() | {"pass": True, "notes": "first"} == rep.as_dict()
    assert rep.note("", exact=True).as_dict() == rep.as_dict()
    assert IdentityReport("e", exact=True).note("x").as_dict() == \
        IdentityReport("e", exact=True, notes="x").as_dict()


def test_worst_of_folds_both_halves():
    exact = [IdentityReport(n, exact=True) for n in "ab"]
    rep = worst_of(exact, 1e-8)
    assert (rep.exact, rep.sampled, rep.passed, rep.relative) == \
        (True, False, True, 0.0)
    sampled = IdentityReport("s", 1e-9, 1.0, 1e-8)
    rep = worst_of([*exact, sampled], 1e-8)
    assert (rep.exact, rep.relative, rep.worst) == (True, 1e-9, "s")
    assert worst_of([sampled], 1e-8).exact is None
    rep = worst_of([sampled, IdentityReport("c", exact=False)], 1e-8)
    assert (rep.exact, rep.relative, rep.passed, rep.worst) == \
        (False, 1e-9, False, "c")


def test_worst_of_fails_when_any_member_failed():
    # a member failed on its exact half keeps its small residual
    exact = IdentityReport("exact", 1e-15, 1.0, 1e-8, exact=False)
    sampled = IdentityReport("sampled", 1e-9, 1.0, 1e-8)
    later = IdentityReport("later", 1e-12, 1.0, 1e-8, exact=False)
    rep = worst_of([sampled, exact, later], 1e-8)
    assert not rep.passed
    assert (rep.max_abs, rep.relative) == (sampled.max_abs, sampled.relative)
    assert rep.worst == "exact"
    healthy = worst_of([IdentityReport("a", 1e-12, 1.0, 1e-8), sampled], 1e-8)
    assert healthy.passed and healthy.worst == "sampled"
    assert not worst_of([sampled], 1e-10).passed


def test_default_battery_is_generic():
    fns = default_battery("q")
    assert len(fns) >= 5
    # battery functions must separate differential directions: no two agree
    plan = SamplePlan(seed=4, count=12)
    from oracles import evaluate
    pts = plan.points(("q",))
    vals = [tuple(evaluate(f, p) for p in pts) for f in fns]
    assert len({tuple(round(x.real, 9) for x in v) for v in vals}) == len(fns)


def test_check_op_zero_compares_and_decides():
    plan = SamplePlan(seed=0, count=24)
    a = DiffOp.partial("theta") @ DiffOp.from_expr(Sin(THETA))
    b = (DiffOp.from_expr(Cos(THETA))
         + DiffOp.from_expr(Sin(THETA)) @ DiffOp.partial("theta"))
    # two operators are compared through their difference, scaled by both
    rep = check_op_zero(a - b, plan, reference_ops=(a, b), tol=TOL_OPERATOR)
    assert rep.passed and not rep.data
    assert not check_op_zero(a + b, plan, reference_ops=(a, b),
                             tol=TOL_OPERATOR).passed
    rep2 = check_op_zero((a - b).normalized(), plan, reference_ops=(),
                         tol=TOL_OPERATOR)
    assert rep2.passed and rep2.relative == 0.0
    rep3 = check_op_zero(DiffOp.from_expr(Sin(THETA)), plan, reference_ops=(),
                         tol=TOL_OPERATOR)
    assert not rep3.passed


def test_check_op_zero_scales_against_references():
    plan = SamplePlan(seed=0, count=24)
    small = DiffOp.from_expr(Mul(Const(Fraction(1, 10 ** 6)), Sin(THETA)))
    big = DiffOp.from_expr(Mul(Const(10 ** 6), Sin(THETA)))
    # a 1e-6 residual fails against the unit scale but is 1e-12 relative
    # to a 1e+6 reference operator
    assert not check_op_zero(small, plan, reference_ops=(),
                             tol=TOL_OPERATOR).passed
    assert check_op_zero(small, plan, reference_ops=[big],
                         tol=TOL_OPERATOR).passed


def test_probe_annihilated_by_every_reference_is_passed_over():
    # d_theta sin(theta) - cos(theta) - sin(theta) d_theta is the zero
    # operator, built unnormalized: its sampled action is rounding-level, not
    # exactly 0, and the probe must not count against that scale
    plan = SamplePlan(seed=0, count=24)
    zero = (DiffOp.partial("theta") @ DiffOp.from_expr(Sin(THETA))
            - DiffOp.from_expr(Cos(THETA))
            - DiffOp.from_expr(Sin(THETA)) @ DiffOp.partial("theta"))
    probe = Mul(Exp(Mul(Const(Fraction(-1, 3)), Pow(R, 2))), Sin(THETA), R)
    op = DiffOp.from_expr(Sin(THETA))
    with pytest.raises(PlanDegenerate, match="degenerate test battery"):
        check_op_zero(op, plan, reference_ops=[zero], testfns=[probe],
                      tol=TOL_OPERATOR)
    rep = check_op_zero(op, plan, reference_ops=[zero, op],
                        testfns=[probe, Cos(THETA)], tol=TOL_OPERATOR)
    assert not rep.passed and rep.relative == 1.0


def _refuse(*args, **kwargs):
    raise AssertionError("the sampled path canonicalized an expression")


def test_sampling_never_canonicalizes(monkeypatch):
    plan = SamplePlan(seed=5, count=12)
    gens = su2.build_raw_generators()
    label, residual, refs = su2.commutator_residuals(gens)[0]
    a = DiffOp.partial("theta") @ DiffOp.from_expr(Sin(THETA))
    b = (DiffOp.from_expr(Cos(THETA))
         + DiffOp.from_expr(Sin(THETA)) @ DiffOp.partial("theta"))
    d2 = DiffOp((OpTerm(ONE, (2, 0, 0, 0)),))
    trig = Add(Pow(Sin(THETA), 2), Pow(Cos(THETA), 2), Const(-1))
    # every module that holds the canonicalizer, or the queries built on
    # it, gets the refusing stand-in
    for name in ("_canon_cf", "canonical", "free_symbols"):
        original = getattr(symx, name)
        for module in (shapeinv, *vars(shapeinv).values()):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, _refuse)
    reports = [
        check_zero(trig, plan, reference=(ONE,), tol=TOL_OPERATOR,
                   name="zero-check"),
        check_proportional(Mul(Const(3), Sin(THETA), R), Mul(Sin(THETA), R),
                           plan),
        measure_constant(Add(Pow(Sin(PHI), 2), Pow(Cos(PHI), 2)), plan,
                         "constant"),
        check_eigen(d2, Sin(THETA), -1, plan, 1e-10, "eigen"),
        check_op_zero(a - b, plan, reference_ops=(a, b), tol=TOL_OPERATOR),
        check_op_zero(residual, plan, reference_ops=refs, tol=TOL_OPERATOR,
                      name=label),
    ]
    assert all(rep.passed for rep in reports)
    assert reports[0].relative > 0.0  # the tree was sampled, not its CF
