"""Randomized-evaluation identity engine.

All algebraic claims in this package are double-checked numerically: exact
symbolic construction first, then evaluation of residuals on a seeded cloud
of sample points that stays away from coordinate singularities.  The
primitives here know nothing about the physics modules; they consume plain
expressions and anything with an ``apply(expr) -> expr`` operator interface.

Conventions
-----------
* a report has an exact half (decided equal, decided different, or not
  decided) and a sampled half (a residual and its tolerance, or none), and
  `IdentityReport.passed` is the one rule that judges both; an aggregate
  (`worst_of`) folds its members' halves;
* a report's ``relative`` residual is max-abs residual divided by the largest
  magnitude the compared quantities reach on the plan (floored at 1e-300);
* proportionality checks report the pointwise-ratio dispersion stddev/|mean|;
* points where evaluation hits a singularity are skipped, but more than 20%
  skipped points invalidates the plan; a request's skipped points are those
  of its own trees, whatever else is sampled beside it; such a point holds
  nan in its columns, which is how it is found;
* the sampled checks of a battery (`shared_columns`) share one column
  table, `symx.Program`, and one `symx.Cloud` per (seed, count, extra
  symbols): the points drawn and the columns computed on them, so a node
  that several requests hold is evaluated once per cloud; outside a
  battery the table and its cloud live for one request;
* a plan that cannot decide raises PlanDegenerate: too many points
  skipped, a divisor that vanishes, or an operator comparison whose every
  probe is annihilated;
* expressions are sampled as the trees that were built, never through their
  canonical forms, so an exact cancellation samples to rounding level, not 0:
  an exact verdict goes in the exact half;
* an operator comparison passes over a probe f whose reference scale is at
  most PROBE_FLOOR = 1e-12 of f's own largest magnitude on the plan: every
  reference annihilates it, up to rounding (about 1e-16 of |f|); by the
  same floor, check_zero judges f absolutely when its reference scale is at
  most PROBE_FLOOR of f's largest magnitude.

Sample counts
-------------
For a nonzero polynomial of total degree d and points drawn independently
and uniformly from S^n, a point is a root with probability at most d/|S|
(Schwartz 1980; Zippel 1979), so the chance that every point of a cloud is a
root falls geometrically with the number of points.  The sample counts rest
on that independence assumption: a plan's cloud depends only on the seed and
on the names of the free symbols, never on the expression under test, so
its points are independent of the residual's zero set.  The residuals are
trigonometric and exponential polynomials; a nonzero one vanishes on a set
of measure zero in the coordinate boxes, and float draws make |S| large.
The integer parameter pools hold only 7 values each, so the counts rely
on the continuous coordinates to tell a nonzero residual from zero.
"""
from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from .rationals import GaussRat
from .symx import (
    COORDINATES,
    Add,
    Cloud,
    Const,
    Cos,
    Exp,
    Expr,
    IMAG,
    Mul,
    ONE,
    PHI,
    PSI,
    Pow,
    Program,
    R,
    Sin,
    Sym,
    THETA,
)

DEFAULT_BOXES = {
    "theta": (0.3, math.pi - 0.3),
    "psi": (0.3, math.pi - 0.3),
    "phi": (0.0, 2.0 * math.pi),
    "r": (0.4, 2.5),
}

# integer parameter pools; everything else falls back to a generic box
INT_POOLS = {
    "q": (-3, 3),
    "m": (-3, 3),
}
OMEGA_POOL = (1.0, 2.0, 0.5)
GENERIC_BOX = (0.4, 1.7)

SKIP_BUDGET = 0.20
SCALE_FLOOR = 1e-300
PROBE_FLOOR = 1e-12  # see the module notes

# default tolerances (see package docs): operator identities are tight,
# eigen/ladder chains accumulate more roundoff; a measured constant is
# judged by its absolute dispersion; an exact identity (a structural
# verdict, the quadratic invariant's closed form) is judged tighter still
TOL_OPERATOR = 1e-10
TOL_EIGEN = 1e-8
TOL_CONSTANT = 1e-9
TOL_EXACT = 1e-12


class PlanDegenerate(RuntimeError):
    """The plan cannot decide: too many sample points skipped, no usable
    reference scale, or an operator comparison whose every probe is
    annihilated (an inconclusive battery)."""


class SamplePlan:
    """Deterministic cloud of evaluation points avoiding singular loci."""

    def __init__(self, seed: int, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.seed = int(seed)
        self.count = int(count)

    def points(self, extra_symbols) -> list:
        """Bindings for the four coordinates plus any extra named symbols.

        Extras are drawn from integer pools for quantum-number-like names,
        from the frequency pool for 'omega', and from a generic positive box
        otherwise.  The sequence is a pure function of (seed, count, extras);
        the mix-in below is content-stable so reruns in fresh processes
        (randomized string hashing) see identical clouds.
        """
        extras = sorted(set(extra_symbols))
        key = f"{self.seed}|{','.join(extras)}"
        rng = random.Random(int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big"))
        boxes = [(name, lo, hi - lo) for name, (lo, hi) in DEFAULT_BOXES.items()]
        extras = [name for name in extras if name not in DEFAULT_BOXES]
        pts = []
        for _ in range(self.count):
            b = {}
            for name, lo, width in boxes:
                b[name] = lo + width * rng.random()
            for name in extras:
                if name == "omega":
                    b[name] = OMEGA_POOL[rng.randrange(len(OMEGA_POOL))]
                elif name in INT_POOLS:
                    lo, hi = INT_POOLS[name]
                    b[name] = float(rng.randint(lo, hi))
                else:
                    lo, hi = GENERIC_BOX
                    b[name] = lo + (hi - lo) * rng.random()
            pts.append(b)
        return pts


class IdentityReport:
    """Outcome of one verification: an exact half and a sampled half.

    `exact` is True when an exact comparison decided that the claim holds,
    False when one decided that it does not, None when none decided.  The
    sampled half is a max-abs residual over its scale, `relative`, judged
    against `tol`; a report built without one (`sampled` False) states the
    residual 0 when its exact half holds, else 1, on unit scale.  `passed`
    follows one rule: a report fails when its exact half is False or its
    sampled residual is above its tolerance."""

    __slots__ = ("name", "exact", "sampled", "max_abs", "scale", "relative",
                 "tol", "worst", "notes", "data")

    def __init__(self, name="", max_abs=None, scale=1.0, tol=TOL_EXACT, *,
                 exact=None, worst=None, notes="", data=None):
        if max_abs is None and exact is None:
            raise ValueError(f"{name}: a report needs an exact or a sampled half")
        self.name, self.exact, self.worst = name, exact, worst
        self.sampled = max_abs is not None
        self.max_abs = float(max_abs if self.sampled else not exact)
        self.scale = float(scale)
        self.relative = self.max_abs / max(self.scale, SCALE_FLOOR)
        self.tol = float(tol)
        self.notes, self.data = notes, dict(data or {})

    @property
    def passed(self) -> bool:
        return self.exact is not False and (not self.sampled
                                            or self.relative <= self.tol)

    def note(self, text: str, exact=None) -> "IdentityReport":
        """This report with `text` after its notes, separated by '; ', and
        `exact` folded into its exact half as `worst_of` folds them."""
        return IdentityReport(
            self.name, self.max_abs if self.sampled else None, self.scale,
            self.tol, exact=min({self.exact, exact} - {None}, default=None),
            worst=self.worst, notes="; ".join(filter(None, (self.notes, text))),
            data=self.data)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "scale": self.scale,
            "relative_residual": self.relative,
            "tolerance": self.tol,
            "pass": self.passed,
            "worst": self.worst,
            "notes": self.notes,
            "data": {k: _jsonable(v) for k, v in sorted(self.data.items())},
        }

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: relative={self.relative:.3e} "
                f"(tol {self.tol:.1e}){'; ' + self.notes if self.notes else ''}")

    def __repr__(self):
        return f"IdentityReport({self})"


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _bounded(col) -> bool:
    """Whether the moduli of col sum to at most 1e100, which holds only when
    no value is nan, blows up past 1e100 or has a modulus past the float
    range; for one value, that is the rule itself."""
    try:
        return sum(map(abs, col)) <= 1e100
    except OverflowError:  # finite parts whose modulus overflows
        return False


def _eval_many(program: Program, cloud: Cloud):
    """Evaluate a compiled program over a point cloud.

    Returns (values: list per expr of list per point, kept points, skipped
    point count).  Points where any expression is singular or overflows
    (the program leaves nan there), is not finite or exceeds 1e100 in
    modulus are dropped for all expressions, keeping the value lists
    aligned.  When none is, the program's columns and the cloud's points
    are returned as they are: callers only read them.
    """
    values, bad = program(cloud), set()
    for col in values:
        if not _bounded(col):  # some point may blow up: test each one
            bad.update(i for i, v in enumerate(col) if not _bounded((v,)))
    if not bad:
        return values, cloud.points, 0
    keep = [i for i in range(len(cloud)) if i not in bad]
    return ([[col[i] for i in keep] for col in values],
            [cloud.points[i] for i in keep], len(bad))


def _guard_skips(skipped: int, total: int, name: str):
    if total == 0 or skipped > SKIP_BUDGET * total:
        raise PlanDegenerate(
            f"{name}: {skipped}/{total} sample points skipped (budget 20%)")


# the column table that the open battery shares, and its `Cloud`s by
# (seed, count, extra symbols); None outside a battery.  A battery's checks
# reach `_sample` through several layers of check functions, so the table
# is opened around them rather than passed down.
_TABLE = None


@contextmanager
def shared_columns():
    """Run a battery of sampled checks over one column table: a node that
    several of its requests share is evaluated once per point cloud.  In
    a battery that is already open this joins it."""
    global _TABLE
    if _TABLE is not None:
        yield
        return
    _TABLE = (Program([]), {})
    try:
        yield
    finally:
        _TABLE = None


def _sample(exprs, plan: SamplePlan, name: str):
    """Evaluate exprs on the plan's points for their free symbols, in the
    open battery's column table or, outside one, in a table of their own.

    Returns (values per expr, kept points, skipped count); raises
    PlanDegenerate when the skip budget is exceeded.
    """
    program, clouds = _TABLE or (Program([]), {})
    program.add(exprs)
    extras = program.symbols - set(COORDINATES)
    key = (plan.seed, plan.count, extras)
    cloud = clouds.get(key)
    if cloud is None:
        cloud = clouds[key] = Cloud(plan.points(extras))
    vals, kept, skipped = _eval_many(program, cloud)
    _guard_skips(skipped, plan.count, name)
    return vals, kept, skipped


def _max_abs(values) -> float:
    return max(map(abs, values), default=0.0)


def _worst_point(kept, values):
    """Largest |value| and its (rounded) binding; (0.0, None) if all vanish."""
    max_abs, worst = 0.0, None
    for b, v in zip(kept, values):
        if abs(v) > max_abs:
            max_abs, worst = abs(v), {k: round(x, 6) for k, x in b.items()}
    return max_abs, worst


def worst_of(reports, tol, notes: str = "") -> IdentityReport:
    """One report for a battery of checks, its members' halves folded: the
    exact half is False when a member's is, else True when one is, else
    None; the sampled half is the worst sampled member's residual and scale,
    judged against `tol`, and none when no member was sampled.  So it fails
    when any member judged at `tol` failed.  `worst` names the first failed
    member, or else the worst sampled one; ties go to the first of them."""
    worst = max((r for r in reports if r.sampled),
                key=lambda r: r.relative, default=None)
    named = next((r for r in reports if not r.passed), worst)
    return IdentityReport(
        "worst-of", worst and worst.max_abs, worst.scale if worst else 1.0, tol,
        exact=min({r.exact for r in reports} - {None}, default=None),
        worst=named and named.name, notes=notes)


def check_zero(f: Expr, plan: SamplePlan, reference, tol,
               name) -> IdentityReport:
    """Residual of f against 0, scaled by reference expression magnitudes.

    A reference scale at most PROBE_FLOOR times f's own largest magnitude
    is degenerate, and the residual is then judged absolutely."""
    (fvals, *refvals), kept, skipped = _sample([f, *reference], plan, name)
    scale = max(map(_max_abs, refvals), default=0.0)
    max_abs, worst = _worst_point(kept, fvals)
    notes = ""
    if scale <= PROBE_FLOOR * max_abs:
        notes = "reference scale degenerate; using absolute residual"
        scale = 1.0
    return IdentityReport(name, max_abs, scale, tol, worst=worst, notes=notes,
                          data={"skipped": skipped})


def check_proportional(f: Expr, g: Expr, plan: SamplePlan, tol=TOL_EIGEN,
                       name="proportionality") -> IdentityReport:
    """Pointwise f/g must be constant; reports mean ratio and dispersion."""
    (fv, gv), _, skipped = _sample([f, g], plan, name)
    gscale = _max_abs(gv)
    if gscale < 1e-20:
        raise PlanDegenerate(f"{name}: proportionality undefined (divisor ~ 0)")
    usable = [(a, b) for a, b in zip(fv, gv) if abs(b) > 1e-6 * gscale]
    if len(usable) < 0.8 * len(gv):
        raise PlanDegenerate(
            f"{name}: divisor vanishes at {len(gv)-len(usable)}/{len(gv)} points")
    ratios = [a / b for a, b in usable]
    mean = sum(ratios) / len(ratios)
    var = sum(abs(r - mean) ** 2 for r in ratios) / len(ratios)
    stddev = math.sqrt(var)
    return IdentityReport(name, stddev, max(abs(mean), SCALE_FLOOR), tol,
                          notes=f"ratio={mean:.12g}",
                          data={"ratio": mean, "skipped": skipped})


def check_eigen(op, f: Expr, value, plan: SamplePlan, tol, name,
                reference=None) -> IdentityReport:
    """Sampled residual of the eigen equation op f = value f.

    The residual op f - value f is scaled by |value f| over the plan, or by
    |f| when value is 0; `reference` replaces that scale expression.
    """
    lam = Const(value)
    residual = Add(op.apply(f), Mul(Const(-1), lam, f))
    if reference is None:
        reference = Mul(lam, f) if value else f
    return check_zero(residual, plan, reference=[reference], tol=tol, name=name)


def measure_constant(f: Expr, plan: SamplePlan, name) -> IdentityReport:
    """Verify f is a constant function; the measured value goes in `data`."""
    (fv,), _, skipped = _sample([f], plan, name)
    mean = sum(fv) / len(fv)
    stddev = math.sqrt(sum(abs(v - mean) ** 2 for v in fv) / len(fv))
    # absolute dispersion criterion: a constant is constant at any magnitude
    return IdentityReport(name, stddev, 1.0, TOL_CONSTANT,
                          notes=f"value={mean:.12g}",
                          data={"value": mean, "skipped": skipped})


# ---------------------------------------------------------------------------
# Operator comparison
# ---------------------------------------------------------------------------

def default_battery(param: str) -> list:
    """Probe functions exercising every derivative slot, the periodic
    coordinate, the radial direction and the shift parameter (polynomially
    and exponentially, so mismatched shifts cannot hide)."""
    p = Sym(param)
    half = Const(Fraction(1, 2))
    third = Const(Fraction(1, 3))
    return [
        Add(Mul(Sin(THETA), Cos(PSI)), Mul(Cos(THETA), Sin(PSI))),
        Add(Mul(Pow(R, 2), Sin(PSI), Cos(THETA)), Mul(R, Cos(PSI), Sin(THETA))),
        Mul(Exp(Mul(IMAG, PHI)), Sin(THETA), Sin(PSI)),
        Mul(Add(ONE, Mul(half, p), Mul(third, Pow(p, 2))), Sin(PSI), Cos(THETA)),
        Mul(Exp(Mul(Const(Fraction(-1, 3)), Pow(R, 2))), R, Sin(THETA), Sin(PSI)),
        Mul(Exp(Add(Mul(Const(GaussRat(Fraction(1, 3), Fraction(1, 3))), p),
                    Mul(Const(Fraction(-1, 3)), Pow(R, 2)))), Sin(PSI), Cos(THETA)),
    ]


@shared_columns()
def _probe_loop(op, reference_ops, plan: SamplePlan, testfns, name):
    """Worst relative residual of `op` over a probe battery.

    Each probe f is applied by `op` and then by each reference operator; the
    residual op f is scaled by the largest |r f| over the plan (by 1 when
    there are no references).  A probe whose scale is at most PROBE_FLOOR
    times its own largest |f| on the plan is annihilated by every reference
    and is passed over.  Returns (worst relative residual, {"probe",
    "point"} of it), or None when every probe was passed over.
    """
    ops = (op, *reference_ops)
    param = next((o.param for o in ops if getattr(o, "param", None)), "q")
    fns = list(testfns) if testfns is not None else default_battery(param)
    worst_rel, worst_info = -1.0, None
    for idx, fn in enumerate(fns):
        (dv, *refvals, fv), kept, _ = _sample(
            [*(o.apply(fn) for o in ops), fn], plan, f"{name}[probe {idx}]")
        scale = max(map(_max_abs, refvals)) if reference_ops else 1.0
        if scale <= PROBE_FLOOR * _max_abs(fv):
            continue
        max_abs, point = _worst_point(kept, dv)
        rel = max_abs / scale
        if rel > worst_rel:
            worst_rel, worst_info = rel, {"probe": idx, "point": point}
    if worst_info is None:
        return None
    return worst_rel, worst_info


def check_op_zero(op, plan: SamplePlan, reference_ops, testfns=None, *,
                  tol, name="operator-zero") -> IdentityReport:
    """Check an operator is zero, scaling residuals by reference operators.

    The relative residual is the worst per probe.  Two operators a and b
    are compared as check_op_zero(a - b, reference_ops=(a, b)); a
    commutator identity takes the operators being commuted as references.
    """
    found = _probe_loop(op, reference_ops, plan, testfns, name)
    if found is None:
        if op.is_zero():
            return IdentityReport(name, tol=tol, exact=True,
                                  notes="operator structurally zero")
        raise PlanDegenerate(f"{name}: inconclusive: degenerate test battery")
    worst_rel, worst_info = found
    return IdentityReport(name, worst_rel, 1.0, tol, worst=worst_info)
