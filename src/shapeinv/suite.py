"""Registered verification battery and fault-injection negative controls.

Every positive identity check in the package is registered here in a fixed
order, followed by deliberate-fault controls that prove the verifier can
fail.  A fault entry *passes* when the mutation is detected (the underlying
identity check fails); its notes record the observed residual.

Each check is declared once, by an `_check` line over its function: the
entry's name, its sector, its route (what decides the verdict:
"structural": its report has an exact half, "sampled": it drew sample
points, or "both") and its paper_ref, a neutral description of what is
verified.  Declaration order is report order.  The fault entries share one
paper_ref, `FAULT_REF`.  A check function returns only a verdict, one
`IdentityReport` whose exact and sampled halves give its pass, relative
residual and notes; the entry's name comes from its declaration.  A fault
control, a verdict on another report's outcome, has no exact half.

The aggregated report is a plain dictionary rendered to JSON with sorted
keys; all sampling derives from the configured seed through content-stable
hashes, so identical configurations produce byte-identical reports even
across processes.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from operator import attrgetter

from . import ladders2d, osc3d, su2
from .opalg import DiffOp, OpTerm, commutator, fourier_reduce
from .symx import Const, Mul, collector_paused, is_zero_expr
from .verify import (
    TOL_CONSTANT,
    TOL_EIGEN,
    TOL_EXACT,
    TOL_OPERATOR,
    IdentityReport,
    PlanDegenerate,
    SamplePlan,
    check_eigen,
    check_op_zero,
    check_proportional,
    default_battery,
    shared_columns,
    worst_of,
)


@dataclass(frozen=True)
class SuiteConfig:
    """Run settings of the registered battery.

    seed derives every sample plan; points is the per-plan sample count;
    tol_eigen is the tolerance of the eigen and ladder checks.  Operator
    identities use `verify.TOL_OPERATOR` and the measured constant
    `verify.TOL_CONSTANT`.  The state grids are fixed, each at the check
    that walks it: 2-D levels 2l <= 6 and 3-D n + n3 + n4 <= 4.
    """
    seed: int = 0
    points: int = 10
    tol_eigen: float = TOL_EIGEN


def _plan(cfg: SuiteConfig, label: str, count: int | None = None) -> SamplePlan:
    """Deterministic per-check plan: the label decorrelates the clouds."""
    h = int.from_bytes(
        hashlib.sha256(f"{cfg.seed}:{label}".encode()).digest()[:4], "big")
    return SamplePlan(seed=h, count=count or cfg.points)


def _light_battery(param: str) -> list:
    """Four probes: angular, radially weighted, parameter-polynomial and
    parameter-exponential -- enough to expose every slot and any shift."""
    b = default_battery(param)
    return [b[0], b[1], b[3], b[5]]


@shared_columns()
def _op_reports(plan: SamplePlan, param: str, residuals) -> list:
    """One sampled report per (label, residual, reference ops): the
    residual against zero on the light battery in `param`, scaled by its
    reference operators, at TOL_OPERATOR; each report is named by its
    label."""
    fns = _light_battery(param)
    return [check_op_zero(res, plan, reference_ops=refs, testfns=fns,
                          tol=TOL_OPERATOR, name=label)
            for label, res, refs in residuals]


def _verdict(ok: bool, notes: str) -> IdentityReport:
    """A verdict on other reports' outcomes, as a fault control's: it
    decides nothing exact, and its residual is 0 when `ok`, else 1."""
    return IdentityReport(max_abs=float(not ok), notes=notes)


def _caught(rep: IdentityReport, mutation: str) -> IdentityReport:
    """A fault control's verdict: caught when `rep`, the check of the
    mutated object, failed; the notes give its residual."""
    return _verdict(not rep.passed,
                    f"{mutation} (relative {rep.relative:.3e})")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

FAULT_PREFIX = "fault: "

FAULT_REF = "negative control: deliberate mutation must be detected"

SECTORS = ("su2", "2d", "3d")

# (name, paper_ref, sector, route, function name) per check, in report order
_CHECKS = []


def _check(name: str, sector: str, route: str, paper_ref: str):
    """Declare the decorated function as the suite check `name` (see the
    module notes).  The table keeps the function's name, so `_registry`
    runs whatever the module binds to it: a test's stub, a tracer's
    wrapper."""
    def declare(fn):
        _CHECKS.append((name, paper_ref, sector, route, fn.__name__))
        return fn
    return declare


def _registry():
    """(name, paper_ref, sector, check) per declared check, in report
    order; each check is read from the module when this is called."""
    return [(name, ref, sector, globals()[fn])
            for name, ref, sector, _, fn in _CHECKS]


# ---------------------------------------------------------------------------
# Positive checks: angular-momentum sector
# ---------------------------------------------------------------------------

@_check("su2 bracket table (structural)", "su2", "structural",
        "bracket closure of the two commuting angular realizations")
def _chk_su2_structural(cfg):
    gs = su2.build_raw_generators()
    bad = [lbl for lbl, res, _ in su2.commutator_residuals(gs)
           if not res.is_zero()]
    return IdentityReport(
        exact=not bad, notes="all 15 residual operators normalize to zero"
        if not bad else "nonzero residuals: " + ", ".join(bad))


@_check("su2 bracket table (sampled)", "su2", "sampled",
        "bracket closure of the two commuting angular realizations")
def _chk_su2_sampled(cfg):
    residuals = su2.commutator_residuals(su2.build_raw_generators())
    rep = worst_of(_op_reports(_plan(cfg, "su2-comm"), "q", residuals),
                   TOL_OPERATOR)
    return rep.note(f"worst: {rep.worst}")


@_check("invariant from either sector", "su2", "structural",
        "quadratic invariant built from left or right generators")
def _chk_invariant_routes(cfg):
    gs = su2.build_raw_generators()
    return IdentityReport(
        exact=su2.quadratic(gs).same_operator(su2.quadratic_right(gs)),
        notes="left-built and right-built quadratic forms are the same operator")


@_check("invariant closed form", "su2", "both",
        "quadratic invariant against its closed second-order form")
def _chk_invariant_closed(cfg):
    gs = su2.build_raw_generators()
    built = su2.casimir(gs)
    ref = su2.casimir_reference()
    rep = check_op_zero(built - ref, _plan(cfg, "casimir"),
                        reference_ops=(built, ref),
                        testfns=_light_battery("q"), tol=TOL_EXACT)
    ok = built.same_operator(ref)
    return rep.note("structural match is exact" if ok else
                    "structural mismatch against the closed form", exact=ok)


@_check("invariant lattice reduction", "su2", "structural",
        "periodic coordinate reduced to an integer lattice label")
def _chk_invariant_reduction(cfg):
    red = fourier_reduce(su2.casimir(su2.build_raw_generators()), "q")
    ref = su2.casimir_reduced_reference()
    return IdentityReport(exact=red.same_operator(ref), notes="reduction agrees "
                          "term-for-term with the closed reduced form")


@_check("reduced generators closed forms", "su2", "structural",
        "shift-operator closed forms of the six reduced generators")
def _chk_reduced_generators(cfg):
    bad = [n for n, op in su2.build_reduced_generators().pairs()
           if not op.same_operator(su2.reduced_ladder_reference(n))]
    return IdentityReport(exact=not bad, notes="all six reduced generators match"
                          if not bad else "mismatch: " + ", ".join(bad))


@_check("half-power weight similarity", "su2", "structural",
        "similarity transform by the single-angle half-power weight")
def _chk_weight_similarity(cfg):
    der = su2.conjugate(su2.casimir_reduced_reference(), su2.weight_psi())
    return IdentityReport(
        exact=der.same_operator(su2.weighted_reduced_reference()),
        notes="single-angle weight conjugation matches its closed form")


@_check("Schrodinger-form agreement", "su2", "both",
        "full-weight similarity against the potential-form Hamiltonian")
def _chk_hq(cfg):
    bundle = su2.build_Hq(_plan(cfg, "hq", count=max(cfg.points, 100)))
    ok = bundle.reference.same_operator(bundle.derived)
    return bundle.offset.note(
        "closed form matches the derivation exactly (offset 0)" if ok
        else "closed form is not structurally identical", exact=ok)


@_check("weight-conjugated generators", "su2", "structural",
        "scalar corrections acquired by conjugated generators")
def _chk_primed(cfg):
    got = su2.build_primed_generators().pairs()
    ref = su2.primed_reference()
    bad = [n for (n, a), b in zip(got, ref) if not a.same_operator(b)]
    return IdentityReport(exact=not bad, notes="scalar corrections ride the "
                          "generator's own lattice shift" if not bad
                          else "mismatch: " + ", ".join(bad))


# ---------------------------------------------------------------------------
# Positive checks: 2-D ladder sector
# ---------------------------------------------------------------------------

@_check("level degeneracies", "2d", "structural",
        "degeneracy counting against weight-pair enumeration")
def _chk_degeneracy(cfg):
    cap, bad = 6, []
    for twol in range(cap + 1):
        table = ladders2d.degeneracy_enumeration(twol)
        for q in range(-twol, twol + 1):
            ms = ladders2d.degeneracy(twol, q)
            if ms != table.get(q, []) or len(ms) != twol + 1 - abs(q):
                bad.append((twol, q))
    return IdentityReport(
        exact=not bad, notes=f"counts match the weight-pair enumeration for "
                             f"levels <= {cap}/2" if not bad
        else f"mismatches: {bad}")


@_check("2-D eigen grid", "2d", "sampled",
        "joint eigenfunctions of the reduced two-angle operators")
def _chk_eigen2d(cfg):
    plan = _plan(cfg, "eigen2d", count=max(4, cfg.points // 2))
    # one column table per level and q, whose states share their operators:
    # one per level would hold up to 5 868 slots at once, and one for the
    # grid 13 127
    reports = []
    for twol in range(6 + 1):
        for _, states in groupby(ladders2d.valid_states(twol), attrgetter("q")):
            with shared_columns():
                reports += [r for qn in states
                            for r in ladders2d.verify_eigen(qn, plan,
                                                            tol=cfg.tol_eigen)]
    rep = worst_of(reports, cfg.tol_eigen,
                   notes=f"{len(reports) // 4} states x 4 relations")
    return rep.note(f"worst: {rep.worst}")


@_check("2-D one-step ladder coefficients", "2d", "sampled",
        "measured one-step ladder ratios against closed coefficients")
@shared_columns()
def _chk_ladders2d(cfg):
    plan = _plan(cfg, "ladders2d", count=max(4, cfg.points // 2))
    cap = 4
    reports = [ladders2d.verify_ladder_actions(twol, plan, tol=cfg.tol_eigen)
               for twol in range(cap + 1)]
    steps = sum(r.data.get("steps_checked", 0) for r in reports)
    edges = sum(r.data.get("edge_annihilations", 0) for r in reports)
    return worst_of(
        reports, cfg.tol_eigen,
        notes=f"{steps} interior steps, {edges} edge annihilations, "
              f"levels <= {cap}/2; measured label assignment")


@_check("pair-ladder scalars", "2d", "structural",
        "in-level and cross-level pair products and closed forms")
def _chk_pair_scalars(cfg):
    dev, label_diff = 0, 0
    for twol in range(2, 6 + 1):
        for qn in ladders2d.valid_states(twol):
            q, m = qn.q, qn.m
            if abs(m + 2) <= twol - abs(q):
                want = ladders2d.E_measured_closed(twol, q, m) ** 2
                dev = max(dev, abs(ladders2d.pair_scalar_sq(
                    qn, ladders2d.M_ROUND_TRIP, False) - want))
                try:
                    label_diff += ladders2d.pair_scalar_sq(
                        qn, ladders2d.M_ROUND_TRIP, True) != want
                except ValueError:
                    label_diff += 1
            if q + 2 <= twol - abs(m):
                dev = max(dev, abs(ladders2d.pair_scalar_sq(
                    qn, ladders2d.Q_ROUND_TRIP, True)
                    - ladders2d.N_closed(twol, q, m)))
    return IdentityReport(exact=dev == 0, notes=(
        "products equal their closed forms" if dev == 0 else
        f"products deviate from their closed forms by up to {dev}")
        + f"; the as-stated label assignment deviates at {label_diff} states")


@_check("chain reconstructions", "2d", "both",
        "pair-chain rebuilds of eigenfunctions, ratio one")
def _chk_reconstruction(cfg):
    # the first off-top state with q >= 0 at levels 5/2, 2 and 3/2
    states = (ladders2d.QNum2D(5, 0, -5), ladders2d.QNum2D(4, 0, -4),
              ladders2d.QNum2D(3, 0, -3))
    plan = _plan(cfg, "reconstruct")
    reports = []
    for qn in states:
        reports += ladders2d.reconstruct_chain_reports(qn, plan,
                                                       tol=cfg.tol_eigen)
    return worst_of(
        reports, cfg.tol_eigen,
        notes=f"both pair-chain routes, ratio 1, {len(states)} states")


@_check("edge annihilations", "2d", "sampled",
        "raising operators vanish on extremal states")
def _chk_annihilation(cfg):
    plan = _plan(cfg, "annihilate")
    states = list(islice((qn for twol in range(4 + 1)
                          for qn in ladders2d.valid_states(twol)
                          if ladders2d.annihilation_ops(qn)), 6))
    reports = [rep for qn in states for rep in
               ladders2d.annihilation_reports(qn, plan, cfg.tol_eigen)]
    return worst_of(reports, cfg.tol_eigen,
                    notes=f"{len(reports)} raising edges annihilate")


@_check("pair-order exchange identity", "2d", "structural",
        "commuting the two lowering sectors across the lattice")
def _chk_reorder(cfg):
    return IdentityReport(
        exact=ladders2d.reorder_identity_holds(),
        notes="label-consistent placement vanishes identically; the "
              "as-stated index placement does not (kept as control)")


# ---------------------------------------------------------------------------
# Positive checks: oscillator sector
# ---------------------------------------------------------------------------

@_check("cartesian gradient duality", "3d", "structural",
        "chart gradients against the coordinate functions")
def _chk_gradients(cfg):
    return IdentityReport(exact=all(
        is_zero_expr(res) for _, res in osc3d.gradient_duality_residuals()),
        notes="all 16 pairings collapse to the identity pattern exactly")


@_check("oscillator brackets (structural)", "3d", "structural",
        "canonical commutation relations of the ladder set")
def _chk_osc_comm_structural(cfg):
    bad = []
    for reduced in (True, False):
        for lbl, res, _ in osc3d.commutator_residuals(reduced=reduced):
            if not res.is_zero():
                bad.append(("reduced" if reduced else "full") + " " + lbl)
    return IdentityReport(
        exact=not bad, notes="56 residuals (both algebras) normalize to zero"
        if not bad else "nonzero: " + ", ".join(bad))


@_check("oscillator brackets (sampled)", "3d", "sampled",
        "canonical commutation relations of the ladder set")
def _chk_osc_comm_sampled(cfg):
    reports = _op_reports(_plan(cfg, "osc-comm"), "m",
                          osc3d.commutator_residuals())
    return worst_of(reports, TOL_OPERATOR,
                    notes="; ".join(r.name for r in reports if not r.passed))


@_check("oscillator angular block", "3d", "structural",
        "angular part of the oscillator Hamiltonian")
def _chk_angular_invariant(cfg):
    return IdentityReport(exact=osc3d.angular_matches_invariant(),
                          notes="equals minus the two-angle quadratic invariant")


@_check("oscillator Hamiltonian forms", "3d", "structural",
        "derived Hamiltonian against closed and reduced forms")
def _chk_hamiltonian_forms(cfg):
    ok_full = osc3d.build_H4().same_operator(osc3d.h4_reference())
    ok_red = osc3d.build_Hm().same_operator(osc3d.hm_reference())
    ok_sim = osc3d.radial_similarity_matches()
    ok = ok_full and ok_red and ok_sim
    return IdentityReport(exact=ok, notes=(
        "derived Laplacian, lattice reduction and half-power radial "
        "similarity all match their closed forms" if ok else
        f"full={ok_full} reduced={ok_red} similarity={ok_sim}"))


@_check("transcription deviations isolated", "3d", "structural",
        "closed transcriptions against derived operators")
def _chk_transcriptions(cfg):
    reports = osc3d.transcription_reports()
    bad = [k for k, r in reports.items() if not r.passed]
    return worst_of(
        reports.values(), TOL_EXACT,
        notes=f"{len(reports)} comparisons: exact matches match, each known "
              "deviation is confined to its offending slot" if not bad
        else "unexpected: " + ", ".join(bad))


@_check("oscillator factorization", "3d", "both",
        "number-operator factorization of the Hamiltonian")
def _chk_factorization(cfg):
    full, full_ham = osc3d.factorization(False, 2)
    fact, ham = osc3d.factorization(True, 2)
    ok = fact.same_operator(ham) and full.same_operator(full_ham)
    rep, = _op_reports(_plan(cfg, "factor"), "m",
                       [("factorization", fact - ham, (fact, ham))])
    return rep.note("structural match in both algebras, uniformly in the label"
                    if ok else "structural factorization mismatch", exact=ok)


@_check("intertwining relations", "3d", "both",
        "ladder intertwining across neighboring lattice Hamiltonians")
def _chk_intertwining(cfg):
    residuals = osc3d.intertwining_residuals()
    rep = worst_of(_op_reports(_plan(cfg, "intertwine"), "m", residuals),
                   TOL_OPERATOR)
    ok = all(res.is_zero() for _, res, _ in residuals)
    return rep.note("all four relations vanish structurally" if ok
                    else "a relation failed to vanish structurally", exact=ok)


@_check("ground-state annihilation", "3d", "structural",
        "lowering operators on the Gaussian ground state")
def _chk_ground(cfg):
    ok = osc3d.ground_annihilation(1) and osc3d.ground_annihilation(2)
    return IdentityReport(exact=ok, notes="all four lowering operators kill "
                          "the Gaussian exactly at both frequencies")


def _grid3d(cap: int):
    for n in range(cap + 1):
        for n3 in range(cap - n + 1):
            for n4 in range(cap - n - n3 + 1):
                for m in range(-n, n + 1, 2):
                    yield n, m, n3, n4


@_check("3-D eigen grid (closed form)", "3d", "sampled",
        "closed-form eigenfunctions of the reduced Hamiltonian")
@shared_columns()
def _chk_eigen3d(cfg):
    plan = _plan(cfg, "eigen3d", count=max(4, cfg.points // 2))
    states = [osc3d.QNum3D(n, m, n3, n4, w) for w in (Fraction(1), Fraction(2))
              for n, m, n3, n4 in _grid3d(4)]
    rep = worst_of([osc3d.verify_eigen(qn, plan, closed=True, tol=cfg.tol_eigen)
                    for qn in states],
                   cfg.tol_eigen, notes=f"{len(states)} states over two frequencies")
    return rep.note(f"worst: {rep.worst}")


@_check("3-D ladder vs closed form", "3d", "sampled",
        "operator-chain eigenfunctions against closed forms")
def _chk_ladder_ratio3d(cfg):
    plan = _plan(cfg, "ratio3d")
    states = [osc3d.QNum3D(n, m) for n in range(3 + 1)
              for m in range(-n, n + 1, 2)]
    states += [osc3d.QNum3D(2, 0, 1, 1), osc3d.QNum3D(2, 2, omega=Fraction(2))]
    return worst_of([osc3d.ladder_closed_ratio(qn, plan, tol=cfg.tol_eigen)
                     for qn in states],
                    cfg.tol_eigen, notes=f"constant ratio on {len(states)} states")


@_check("3-D one-step ladder coefficients", "3d", "sampled",
        "square-root occupation coefficients of single steps")
def _chk_ladder_actions3d(cfg):
    rep = osc3d.verify_ladder_actions(
        n_max=2, plan=_plan(cfg, "steps3d"),
        tol=cfg.tol_eigen, radial_states=((0, 0), (1, 1)))
    return worst_of([rep], cfg.tol_eigen, notes="; ".join(filter(None, (
        f"{rep.data['steps_checked']} interior steps, "
        f"{rep.data['edge_annihilations']} edge annihilations", rep.notes))))


@_check("3-D pair-ladder scalars", "3d", "both",
        "paired ascent/descent products and their scalar")
def _chk_pair3d(cfg):
    plan = _plan(cfg, "pair3d")
    reports = []
    for qn in (osc3d.QNum3D(2, 0), osc3d.QNum3D(3, 1), osc3d.QNum3D(2, -2)):
        reports += osc3d.verify_pair_eigen(qn, plan, tol=cfg.tol_eigen)
    return worst_of(
        reports, cfg.tol_eigen,
        notes=f"{len(reports)} product relations carry (n+m)(n-m+2)/4")


@_check("ascent pair target", "3d", "sampled",
        "landing site of the paired ascent on the lattice")
def _chk_ascent_target(cfg):
    reps = osc3d.raising_pair_reports(osc3d.QNum3D(3, 1),
                                      _plan(cfg, "ascent"),
                                      tol=cfg.tol_eigen)
    return _verdict(
        reps["corrected"].passed and not reps["stated"].passed,
        notes="the ascent product lands two lattice sites up; the "
              "as-stated down-target fails (its coefficient is correct)")


@_check("spectrum bookkeeping", "3d", "structural",
        "energy bookkeeping of the oscillator labels")
def _chk_spectrum(cfg):
    ok = (osc3d.QNum3D(0, 0).energy() == 2
          and osc3d.QNum3D(2, 0, 1, 1).energy() == 6
          and osc3d.QNum3D(3, -1, omega=Fraction(2)).energy() == 10)
    return IdentityReport(
        exact=ok, notes="(n + n3 + n4 + 2) w at spot-checked labels")


@_check("cartesian crosschecks", "3d", "sampled",
        "chart-native states against separable cartesian products")
def _chk_cartesian_crosscheck(cfg):
    return worst_of(
        osc3d.cartesian_crosscheck(_plan(cfg, "cartesian"), tol=cfg.tol_eigen),
        cfg.tol_eigen,
        notes="chart-native states match separable cartesian products")


# ---------------------------------------------------------------------------
# Fault injections (negative controls)
# ---------------------------------------------------------------------------

def _flip_term_sign(op: DiffOp, derivs: tuple) -> DiffOp:
    terms = tuple(OpTerm(Mul(Const(-1), t.coeff), t.derivs, t.shift)
                  if t.derivs == derivs else t for t in op.terms)
    return DiffOp(terms, op.param).normalized()


@_check("fault: generator sign flip", "su2", "sampled", FAULT_REF)
def _flt_su2_sign(cfg):
    gs = su2.build_raw_generators()
    bad = _flip_term_sign(gs.Lp, (1, 0, 0, 0))
    res = commutator(bad, gs.Lm) - 2 * gs.L3
    rep, = _op_reports(_plan(cfg, "flt-sign"), "q",
                       [("mutated bracket", res, (bad, gs.Lm, gs.L3))])
    return _caught(rep, "polar-slot sign flip breaks bracket closure")


@_check("fault: invariant scale dropped", "su2", "sampled", FAULT_REF)
def _flt_invariant_scale(cfg):
    gs = su2.build_raw_generators()
    quad, ref = su2.quadratic(gs), su2.casimir_reference()
    rep = check_op_zero(quad - ref, _plan(cfg, "flt-scale"),
                        reference_ops=(quad, ref), testfns=_light_battery("q"),
                        tol=TOL_EXACT, name="mutated invariant scale")
    return _caught(rep, "undoing the factor-4 normalization is caught")


@_check("fault: reversed lattice shift", "su2", "sampled", FAULT_REF)
def _flt_reversed_shift(cfg):
    red = su2.build_reduced_generators()
    bad = DiffOp(tuple(OpTerm(t.coeff, t.derivs, -t.shift)
                       for t in red.Lp.terms), red.Lp.param).normalized()
    res = commutator(bad, red.Lm) - 2 * red.L3
    rep, = _op_reports(_plan(cfg, "flt-shift"), "q", [
        ("mutated reduced bracket", res, (bad, red.Lm, red.L3))])
    return _caught(rep, "flipping the shift direction breaks reduced closure")


@_check("fault: ladder coefficient off by one", "2d", "sampled", FAULT_REF)
def _flt_coeff_off_by_one(cfg):
    qn = ladders2d.QNum2D(4, 1, 1)
    applied = ladders2d.step_op("Lm", 1).apply(ladders2d.chi_reduced(qn))
    target = ladders2d.chi_reduced(ladders2d.QNum2D(4, 0, 0))
    rep = check_proportional(applied, target, _plan(cfg, "flt-off1"),
                             tol=cfg.tol_eigen, name="chain one-step ratio")
    claimed = 2.0  # the true chain coefficient is exactly 1; mutate by +1
    detected = rep.passed and abs(rep.data["ratio"] - claimed) > cfg.tol_eigen
    return _verdict(detected,
                    notes=f"measured chain ratio {rep.data['ratio'].real:.6g} "
                          f"rejects the off-by-one claim {claimed:g}")


@_check("fault: zero-point constant dropped", "3d", "sampled", FAULT_REF)
def _flt_zero_point(cfg):
    fact, ham = osc3d.factorization(True, 0)
    rep, = _op_reports(_plan(cfg, "flt-zp"), "m",
                       [("factorization without +2", fact - ham, (fact, ham))])
    return _caught(rep, "factorization without the +2 fails")


@_check("fault: lowering-gradient sign flip", "3d", "sampled", FAULT_REF)
def _flt_gradient_sign(cfg):
    residuals = osc3d.intertwining_residuals(
        osc3d.gradient_flipped_oscillators())
    pattern = [rep.passed for rep in
               _op_reports(_plan(cfg, "flt-grad"), "m", residuals)]
    detected = pattern == [True, True, False, False]
    return _verdict(detected,
                    notes="exactly the two lowering intertwinings break "
                          f"(pattern {pattern})")


@_check("fault: frequency-blind polynomial arguments", "3d", "sampled",
        FAULT_REF)
def _flt_frequency_blind(cfg):
    w = Fraction(2)
    qn = osc3d.QNum3D(0, 0, 2, 0, w)
    psi = osc3d.closed_sum(0, 0, 2, 0, w, phase=False, hermite_scaled=False)
    rep = check_eigen(osc3d.build_Hm(w).at_incoming(0), psi, qn.energy(),
                      _plan(cfg, "flt-blind"), cfg.tol_eigen,
                      "frequency-blind eigencheck")
    return _caught(rep, "unscaled polynomial arguments fail off the unit "
                        "frequency")


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def run_suite(config: SuiteConfig, sectors=None) -> dict:
    """Execute the registered battery; returns the JSON-ready report.

    ``sectors`` restricts the run to a subset of ``SECTORS`` (the angular
    algebra, the two-angle eigenproblem, the three-coordinate oscillator);
    ``None`` runs everything.  Raises TypeError when ``config`` is not a
    ``SuiteConfig``.  The checks run with the cyclic collector paused
    (`symx.collector_paused`), and its state is restored on return.
    """
    if not isinstance(config, SuiteConfig):
        raise TypeError(f"unsupported suite config: {config!r}")
    if sectors is not None:
        sectors = frozenset(sectors)
        unknown = sectors - frozenset(SECTORS)
        if unknown:
            raise ValueError(f"unknown suite sectors: {sorted(unknown)}")
    entries = []
    with collector_paused():
        for name, ref, sector, fn in _registry():
            if sectors is not None and sector not in sectors:
                continue
            entries.append(_run_check(name, ref, fn, config))
    label = "shapeinv"
    if sectors is not None:
        label += "[" + "+".join(s for s in SECTORS if s in sectors) + "]"
    return {
        "suite": label,
        "seed": config.seed,
        "tolerances": {
            "operator": TOL_OPERATOR,
            "eigen": config.tol_eigen,
            "constant": TOL_CONSTANT,
        },
        "checks": entries,
        "summary": summary_line(e["pass"] for e in entries),
    }


def _run_check(name: str, ref: str, fn, config: SuiteConfig) -> dict:
    """One report entry; an exception in the check becomes a failed entry."""
    try:
        rep = fn(config)
        passed, relative, notes = bool(rep.passed), float(rep.relative), rep.notes
    except (PlanDegenerate, ValueError) as exc:
        passed, relative, notes = False, 1.0, f"error: {exc}"
    except Exception as exc:  # a fault in one check must not end the battery
        import logging  # here, not at the top: it adds 5 ms to start-up
        logging.getLogger(__name__).exception("suite check %r raised", name)
        passed, relative = False, 1.0
        notes = f"error: {type(exc).__name__}: {exc}"
    return {"name": name, "paper_ref": ref, "pass": passed,
            "relative_residual": relative, "notes": notes}


def summary_line(passes) -> str:
    """Closing line of every report: how many checks passed and failed."""
    passes = [bool(p) for p in passes]
    return f"checks: {sum(passes)} passed / {len(passes) - sum(passes)} failed"


def report_json(report: dict) -> str:
    """Canonical byte-stable rendering of a report document."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = [f"suite: {report['suite']} (seed {report['seed']})"]
    width = max(len(e["name"]) for e in report["checks"])
    for e in report["checks"]:
        tag = "PASS" if e["pass"] else "FAIL"
        lines.append(f"[{tag}] {e['name']:<{width}}  "
                     f"relative={e['relative_residual']:.3e}"
                     + (f"  {e['notes']}" if e["notes"] else ""))
    lines.append(report["summary"])
    return "\n".join(lines) + "\n"
