"""The shared ladder lattice against the per-sector code it replaces.

`ladders2d` and `osc3d` each used to carry their own move table, chain
builder, one-step actions loop and residual rule, and beside them their
pair ladders as hand-composed operators with their own chain walks and
scalar products.  Both now supply a `lattice.Lattice` and use its one
walker, its one actions loop over words of moves and its one rule.  The
replaced code is kept as it was, as the oracle, here and (the 3-D chain
states) in `oracles`: the 2-D actions and reconstruction reports must have
the same `as_dict()`, the 3-D actions, pair and ascent reports the same
verdicts with residuals at rounding level, and each chain state must be
the same tree.
"""
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from shapeinv import clear_caches, ladders2d as ld, osc3d
from shapeinv.lattice import check_words, reach, walk, word_name
from shapeinv.ladders2d import (
    QNum2D, step_op, valid_states,
)
from shapeinv.opalg import DiffOp, apply_canonical
from shapeinv.osc3d import QNum3D, build_oscillators, c_squared
from shapeinv.symx import Const, Expr, Mul, PSI, Pow, Sin, THETA, canonical
from shapeinv.verify import (
    TOL_EIGEN, IdentityReport, PlanDegenerate, SamplePlan, check_eigen,
    check_proportional, check_zero, worst_of,
)

from oracles import failed, psi_ladder, state_normalized

PLANS = [SamplePlan(seed=31, count=8), SamplePlan(seed=32, count=12)]


# -- the replaced 2-D code ------------------------------------------------------

def _A(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(ld._coeff_sq(sign, twol, q, m, use_sum=False))


def _B(sign: int, twol: int, q: int, m: int) -> float:
    return math.sqrt(ld._coeff_sq(sign, twol, q, m, use_sum=True))


@lru_cache(maxsize=None)
def _chain(twol: int, q: int, m: int) -> Expr:
    if q == twol and m == 0:
        return canonical(Mul(Pow(Sin(PSI), twol), Pow(Sin(THETA), twol)))
    l_steps = (twol - q - m) // 2
    if l_steps > 0:
        return canonical(
            step_op("Lm", q + 1).apply(_chain(twol, q + 1, m + 1)))
    return canonical(step_op("Rm", q + 1).apply(_chain(twol, q + 1, m - 1)))


def chi_reduced(qn: QNum2D) -> Expr:
    return _chain(qn.twol, qn.q, qn.m)


# measured one-step assignment on the coefficient-normalized family
_MEASURED_STEP = {
    "R+": lambda twol, q, m: _A(-1, twol, q, m),
    "R-": lambda twol, q, m: _A(+1, twol, q, m),
    "L+": lambda twol, q, m: _B(+1, twol, q, m),
    "L-": lambda twol, q, m: _B(-1, twol, q, m),
}
# labels as stated by the reference closed forms (negative control for A)
_REFERENCE_STEP = {
    "R+": lambda twol, q, m: _A(+1, twol, q, m),
    "R-": lambda twol, q, m: _A(-1, twol, q, m),
    "L+": lambda twol, q, m: _B(+1, twol, q, m),
    "L-": lambda twol, q, m: _B(-1, twol, q, m),
}
_STEP_TARGET = {
    "R+": lambda q, m: (q + 1, m - 1),
    "R-": lambda q, m: (q - 1, m + 1),
    "L+": lambda q, m: (q + 1, m + 1),
    "L-": lambda q, m: (q - 1, m - 1),
}


@lru_cache(maxsize=None)
def _gnorm(twol: int, q: int, m: int) -> float:
    if q == twol and m == 0:
        return 1.0
    l_steps = (twol - q - m) // 2
    if l_steps > 0:
        return _gnorm(twol, q + 1, m + 1) * _B(-1, twol, q + 1, m + 1)
    return _gnorm(twol, q + 1, m - 1) * _A(+1, twol, q + 1, m - 1)


def verify_ladder_actions_2d(twol: int, plan: SamplePlan,
                             tol: float = TOL_EIGEN) -> IdentityReport:
    step_ops = {"R+": "Rp", "R-": "Rm", "L+": "Lp", "L-": "Lm"}
    reports = []
    ref_label_dev = 0.0
    checked = 0
    annihilated = 0
    for qn in valid_states(twol):
        src = chi_reduced(qn)
        for kind, op_name in step_ops.items():
            tq, tm = _STEP_TARGET[kind](qn.q, qn.m)
            coeff = _MEASURED_STEP[kind](qn.twol, qn.q, qn.m)
            applied = step_op(op_name, qn.q).apply(src)
            valid_target = (abs(tq) <= twol and abs(tm) <= twol - abs(tq))
            if not valid_target or coeff == 0.0:
                # edge: both the coefficient and the function must vanish
                if coeff != 0.0:
                    return IdentityReport(
                        f"ladder actions 2l={twol}", 1.0, 1.0, tol,
                        notes=f"zero target with nonzero coefficient at "
                              f"{kind} {qn}")
                name = f"{kind} edge {qn}"
                rel = check_zero(applied, plan, reference=[src], tol=tol,
                                 name=name).relative
                reports.append(IdentityReport(name, rel, 1.0, tol))
                annihilated += 1
                continue
            target = chi_reduced(QNum2D(twol, tq, tm))
            rep = check_proportional(applied, target, plan, tol=tol,
                                     name=f"{kind} {qn}")
            ratio = rep.data["ratio"]
            # chain state = (chain scale) x (normalized state), so the
            # normalized-family coefficient rescales by target/source
            measured = ratio * _gnorm(twol, tq, tm) / _gnorm(twol, qn.q, qn.m)
            rel = abs(measured - coeff) / max(abs(coeff), 1e-300)
            rel = max(rel, rep.relative)  # ratio must also be constant
            if abs(measured.imag) > tol * max(abs(coeff), 1.0):
                rel = max(rel, abs(measured.imag))
            reports.append(IdentityReport(f"{kind} at {qn}", rel, 1.0, tol))
            ref_coeff = _REFERENCE_STEP[kind](qn.twol, qn.q, qn.m)
            ref_label_dev = max(ref_label_dev, abs(measured - ref_coeff))
            checked += 1
    worst = worst_of(reports, tol)
    return IdentityReport(
        f"ladder actions 2l={twol}", worst.max_abs, worst.scale, tol,
        exact=worst.exact, worst=worst.worst,
        notes="A-labels verified with the measured (sign-swapped) assignment",
        data=dict(steps_checked=checked, edge_annihilations=annihilated,
                  reference_label_max_deviation=ref_label_dev))


def Y_ladder(q: int) -> tuple:
    """In-level pair ladders at fixed q: (m-raising, m-lowering)."""
    return (step_op("Lp", q - 1) @ step_op("Rm", q),
            step_op("Lm", q + 1) @ step_op("Rp", q))


def X_ladder(q: int) -> tuple:
    """Cross-level pair ladders: (q-raising from q, q-lowering into q)."""
    return (step_op("Lp", q + 1) @ step_op("Rp", q),
            step_op("Lm", q + 1) @ step_op("Rm", q + 2))


def _reconstruct_y(qn: QNum2D):
    top = qn.twol - abs(qn.q)
    expr = chi_reduced(QNum2D(qn.twol, qn.q, top))
    scale = Fraction(1)
    ylow = Y_ladder(qn.q)[1]
    for m_cur in range(top, qn.m, -2):
        expr = apply_canonical(ylow, expr)
        scale *= ld._coeff_sq(-1, qn.twol, qn.q, m_cur, use_sum=False)
    return expr, scale


def _reconstruct_x(qn: QNum2D):
    q_top = qn.twol - abs(qn.m)
    expr = chi_reduced(QNum2D(qn.twol, q_top, qn.m))
    for q_cur in range(q_top - 2, qn.q - 2, -2):
        expr = apply_canonical(X_ladder(q_cur)[1], expr)
    return expr


def reconstruct_chain(qn: QNum2D) -> Expr:
    expr, scale = _reconstruct_y(qn)
    if scale != 1:
        return canonical(Mul(Const(1 / scale), expr))
    return canonical(expr)


def reconstruct_chain_reports(qn: QNum2D, plan: SamplePlan,
                              tol: float = TOL_EIGEN) -> list:
    out = []
    base = chi_reduced(qn)
    for route, rec in (("m", reconstruct_chain(qn)), ("q", _reconstruct_x(qn))):
        rep = check_proportional(rec, base, plan, tol=tol,
                                 name=f"{route}-chain reconstruction {qn}")
        if abs(rep.data["ratio"] - 1.0) > 1e-6:
            rep = failed(rep, f"ratio {rep.data['ratio']:.6g} != 1")
        out.append(rep)
    return out


def annihilation_ops(qn: QNum2D) -> dict:
    out = {}
    if qn.m == qn.twol - abs(qn.q):
        out["m-raising pair"] = Y_ladder(qn.q)[0]
    if qn.q == qn.twol - abs(qn.m):
        out["q-raising pair"] = X_ladder(qn.q)[0]
    if qn.q == qn.twol and qn.m == 0:
        out["left-raising"] = step_op("Lp", qn.q)
        out["right-raising"] = step_op("Rp", qn.q)
    return out


def annihilation_reports(qn: QNum2D, plan: SamplePlan, tol: float) -> list:
    chi = chi_reduced(qn)
    return [check_zero(op.apply(chi), plan, reference=[chi], tol=tol,
                       name=f"{label} annihilates the state")
            for label, op in sorted(annihilation_ops(qn).items())]


# -- the replaced 3-D code ------------------------------------------------------

# op name -> (dn, dm, dn3, dn4, squared coefficient); a move is invalid
# exactly when the squared coefficient vanishes.
_ACTIONS = {
    "A1d": (+1, -1, 0, 0, lambda qn: qn.n1 + 1),
    "A2d": (+1, +1, 0, 0, lambda qn: qn.n2 + 1),
    "A1": (-1, +1, 0, 0, lambda qn: qn.n1),
    "A2": (-1, -1, 0, 0, lambda qn: qn.n2),
    "a3d": (0, 0, +1, 0, lambda qn: qn.n3 + 1),
    "a3": (0, 0, -1, 0, lambda qn: qn.n3),
    "a4d": (0, 0, 0, +1, lambda qn: qn.n4 + 1),
    "a4": (0, 0, 0, -1, lambda qn: qn.n4),
}


def _coefficient_report(moved: Expr, target: Expr, coeff: float,
                        plan: SamplePlan, tol: float, name: str) -> IdentityReport:
    rep = check_proportional(moved, target, plan, tol=tol, name=name)
    dev = abs(rep.data["ratio"] - coeff) / coeff
    return IdentityReport(name, max(rep.relative, dev), 1.0, tol, data=rep.data)


def verify_ladder_actions_3d(n_max: int, plan: SamplePlan,
                             tol: float = TOL_EIGEN,
                             radial_states=((0, 0), (1, 0), (0, 1))) -> IdentityReport:
    s = build_oscillators(1)
    reports, edges = [], 0
    for n in range(n_max + 1):
        for m in range(-n, n + 1, 2):
            for n3, n4 in radial_states:
                qn = QNum3D(n, m, n3, n4)
                src = state_normalized(qn)
                for kind, (dn, dm, d3, d4, sq) in _ACTIONS.items():
                    op = getattr(s, kind).at_incoming(m)
                    coeff_sq = sq(qn)
                    tn, tm = n + dn, m + dm
                    valid = (tn >= abs(tm) and tn >= 0
                             and n3 + d3 >= 0 and n4 + d4 >= 0)
                    if coeff_sq == 0 or not valid:
                        if coeff_sq != 0:
                            return IdentityReport(
                                "ladder actions", 1.0, 1.0, tol,
                                notes=f"zero target with nonzero coefficient "
                                      f"({kind} at {qn})")
                        reports.append(check_zero(
                            op.apply(src), plan, reference=[src], tol=tol,
                            name=f"edge {kind} {qn}"))
                        edges += 1
                    else:
                        tgt = state_normalized(QNum3D(tn, tm, n3 + d3, n4 + d4))
                        reports.append(_coefficient_report(
                            apply_canonical(op, src), tgt, math.sqrt(coeff_sq),
                            plan, tol, f"{kind} on {qn}"))
    worst = worst_of(reports, tol)
    return IdentityReport(
        "ladder actions", worst.max_abs, worst.scale, tol, exact=worst.exact,
        worst=worst.worst,
        notes="; ".join(r.name for r in reports if not r.passed),
        data=dict(steps_checked=len(reports), edge_annihilations=edges))


def pair_minus(omega) -> DiffOp:
    """Paired descent: second lowering after first raising (m -> m - 2)."""
    s = build_oscillators(omega)
    return (s.A2 @ s.A1d).normalized()


def pair_plus(omega) -> DiffOp:
    """Paired ascent: second raising after first lowering (m -> m + 2)."""
    s = build_oscillators(omega)
    return (s.A2d @ s.A1).normalized()


def verify_pair_eigen(qn: QNum3D, plan: SamplePlan,
                      tol: float = TOL_EIGEN) -> list:
    w = qn.omega
    lam = osc3d.pair_energy(qn.n, qn.m)
    up_down = (pair_plus(w) @ pair_minus(w)).at_incoming(qn.m)
    out = [check_eigen(up_down, state_normalized(qn), lam, plan, tol,
                       f"pair plus-after-minus {qn}")]
    if qn.m - 2 >= -qn.n:
        low = QNum3D(qn.n, qn.m - 2, qn.n3, qn.n4, w)
        down_up = (pair_minus(w) @ pair_plus(w)).at_incoming(qn.m - 2)
        out.append(check_eigen(down_up, state_normalized(low), lam, plan, tol,
                               f"pair minus-after-plus {qn}"))
    return out


def raising_pair_reports(qn: QNum3D, plan: SamplePlan,
                         tol: float = TOL_EIGEN) -> dict:
    w = qn.omega
    moved = apply_canonical(pair_plus(w).at_incoming(qn.m),
                            state_normalized(qn))
    coeff = 0.5 * math.sqrt((qn.n - qn.m) * (qn.n + qn.m + 2))
    up = QNum3D(qn.n, qn.m + 2, qn.n3, qn.n4, w)
    out = {"corrected": _coefficient_report(moved, state_normalized(up), coeff,
                                            plan, tol, f"ascent target m+2 {qn}")}
    if qn.m - 2 >= -qn.n:
        down = QNum3D(qn.n, qn.m - 2, qn.n3, qn.n4, w)
        try:
            out["stated"] = check_proportional(
                moved, state_normalized(down), plan, tol=tol,
                name=f"ascent target m-2 {qn}")
        except PlanDegenerate as exc:
            out["stated"] = IdentityReport(
                f"ascent target m-2 {qn}", 1.0, 1.0, tol, notes=str(exc))
    return out


# -- the one loop gives the replaced loops' reports -------------------------------

@pytest.mark.parametrize("plan", PLANS, ids=["plan31", "plan32"])
@pytest.mark.parametrize("twol", range(5))
def test_2d_actions_match_the_replaced_loop(twol, plan):
    got = ld.verify_ladder_actions(twol, plan, TOL_EIGEN)
    assert got.as_dict() == verify_ladder_actions_2d(twol, plan).as_dict()


@pytest.mark.parametrize("plan", PLANS, ids=["plan31", "plan32"])
@pytest.mark.parametrize("radial", [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1))],
                         ids=["default", "suite"])
def test_3d_actions_match_the_replaced_loop(radial, plan):
    """The 3-D sector is judged by the one rule now, which measures against
    the chain states and rescales; the verdicts and counts are the replaced
    loop's, and both residuals stay at rounding level.  The replaced loop
    counts every word as a step; the one loop counts interior steps, as the
    2-D sector does, and edges apart."""
    got = osc3d.verify_ladder_actions(2, plan, TOL_EIGEN,
                                      radial_states=radial).as_dict()
    want = verify_ladder_actions_3d(2, plan, radial_states=radial).as_dict()
    for key in ("pass", "notes", "tolerance"):
        assert got[key] == want[key], key
    edges = got["data"]["edge_annihilations"]
    assert edges == want["data"]["edge_annihilations"]
    assert got["data"]["steps_checked"] + edges == want["data"]["steps_checked"]
    assert got["relative_residual"] <= 1e-13
    assert want["relative_residual"] <= 1e-13


# -- the pair ladders are words of the same tables -------------------------------

def test_reconstructions_match_the_replaced_pair_chains():
    """Each route's walk is the tree the replaced pair chain built, the
    exact coefficient ratio of the m-route walk to the chain is the square
    of the replaced scale (1 on the q-route), and the reports are the
    replaced reports, field for field."""
    plan = SamplePlan(seed=34, count=8)
    lat = ld._LATTICE
    for twol in range(6):
        for qn in valid_states(twol):
            m_top, q_top = twol - abs(qn.q), twol - abs(qn.m)
            chain_sq = math.prod(lat.chain(qn).steps)
            expr, scale = _reconstruct_y(qn)
            for top, pair, k, want, ratio in (
                    (QNum2D(twol, qn.q, m_top), ("R+", "L-"),
                     (m_top - qn.m) // 2, expr, scale ** 2),
                    (QNum2D(twol, q_top, qn.m), ("R-", "L-"),
                     (q_top - qn.q) // 2, _reconstruct_x(qn), 1)):
                seed, path = lat.path(top)
                rec = walk(lat, seed, path + pair * k)
                assert rec.label == qn
                assert rec.state == want, (qn, pair)
                assert Fraction(math.prod(rec.steps), chain_sq) == ratio
            got = [r.as_dict()
                   for r in ld.reconstruct_chain_reports(qn, plan, TOL_EIGEN)]
            assert got == [r.as_dict()
                           for r in reconstruct_chain_reports(qn, plan)], qn


def test_edge_words_match_the_replaced_operators():
    """Every pair edge through doubled level 4 is a word whose coefficient
    vanishes at a letter reached through valid labels only; its report has
    the replaced report's name and verdict, both at rounding level."""
    plan = SamplePlan(seed=35, count=8)
    words = 0
    for twol in range(5):
        for qn in valid_states(twol):
            ops = ld.annihilation_ops(qn)
            assert ops.keys() == annihilation_ops(qn).keys(), qn
            for word in ops.values():
                assert reach(ld._MOVES, qn, word)[1:] == (None, 0), (qn, word)
                words += 1
            got = ld.annihilation_reports(qn, plan, TOL_EIGEN)
            want = annihilation_reports(qn, plan, TOL_EIGEN)
            assert [r.name for r in got] == [r.name for r in want]
            assert all(r.passed and r.relative <= 1e-13 for r in got + want)
    assert words == 60


@pytest.mark.parametrize("omega", [1, 2])
def test_3d_pair_and_ascent_reports_match_the_replaced_code(omega):
    """The round-trip words give the replaced pair relations' verdicts (the
    round trip from m = -n is an edge), the ascent word the replaced ascent
    reports' verdicts, with every passing residual at rounding level: at
    most 1e-13 letter by letter, 1.1e-13 at worst for the replaced composed
    residual at (0, 0, 1, 1)."""
    plan = SamplePlan(seed=36, count=8)
    for n in range(4):
        for m in range(-n, n + 1, 2):
            for n3, n4 in ((0, 0), (1, 1)):
                qn = QNum3D(n, m, n3, n4, omega)
                got = osc3d.verify_pair_eigen(qn, plan, TOL_EIGEN)
                want = verify_pair_eigen(qn, plan)
                assert [r.passed for r in got] == [True] * len(want), qn
                assert all(r.passed for r in want), qn
                # the composed four-operator residual rounds a little worse
                assert max(r.relative for r in got) <= 1e-13, qn
                assert max(r.relative for r in want) <= 1e-12, qn
                assert ("edge" in got[0].name) == (m == -n), got[0].name
                if m == n:
                    continue
                got = osc3d.raising_pair_reports(qn, plan, TOL_EIGEN)
                want = raising_pair_reports(qn, plan)
                assert {k: r.passed for k, r in got.items()} \
                    == {k: r.passed for k, r in want.items()}, qn
                assert got["corrected"].passed, qn
                assert got["corrected"].relative <= 1e-13
                assert want["corrected"].relative <= 1e-13


@pytest.fixture
def cold_caches():
    """Every memo empty before the test and again after it, so no chain
    walked under a patched table outlives it."""
    clear_caches()
    yield
    clear_caches()


def test_reconstruction_charges_a_wrong_coefficient_to_its_own_move(
        cold_caches, monkeypatch):
    """From cold caches the 2-D R- entry claims four times its squared
    coefficient, so every walk records the wrong steps.  An m-route walk
    has k more R- letters than the chain it reconstructs, so its exact
    ratio is 4^k too large and every m-chain reconstruction fails, with
    ratio 2^-k; a q-route walk has as many R- letters as its chain and
    still passes."""
    plan = SamplePlan(seed=33, count=8)
    move = ld._MOVES["R-"]
    monkeypatch.setitem(ld._MOVES, "R-", move._replace(
        coeff_sq=lambda label: 4 * move.coeff_sq(label)))
    routes = 0
    for twol in range(2, 5):
        for qn in valid_states(twol):
            k = (twol - abs(qn.q) - qn.m) // 2
            if k == 0:
                continue
            m_rep, q_rep = ld.reconstruct_chain_reports(qn, plan, TOL_EIGEN)
            assert not m_rep.passed, m_rep
            assert m_rep.data["ratio"] == pytest.approx(2.0 ** -k, rel=1e-9)
            assert q_rep.passed, q_rep
            routes += 1
    assert routes > 0


# -- the one walker gives the replaced chains' trees ------------------------------

def test_walker_builds_the_replaced_2d_chain_states():
    for twol in range(7):
        for qn in valid_states(twol):
            assert ld.chi_reduced(qn) == chi_reduced(qn), qn
            # the float scale keeps its per-step product, bit for bit
            assert ld._LATTICE.scale(qn) == _gnorm(qn.twol, qn.q, qn.m), qn


@pytest.mark.parametrize("omega", [1, 2])
def test_walker_builds_the_replaced_3d_ladder_states(omega):
    for n in range(4):
        for n3 in range(4 - n):
            for n4 in range(4 - n - n3):
                for m in range(-n, n + 1, 2):
                    qn = QNum3D(n, m, n3, n4, omega)
                    assert osc3d.psi_ladder(qn) == psi_ladder(qn), qn


# -- the one rule ----------------------------------------------------------------

_GRIDS = {
    "2d": (ld, list(valid_states(2))),
    "3d": (osc3d, [QNum3D(n, m, n3, n4) for n in range(3)
                   for m in range(-n, n + 1, 2) for n3, n4 in ((0, 0), (1, 1))]),
}


def _warm_moves(sector: str, plan: SamplePlan):
    """The sector's lattice and labels, every chain the actions loop reads
    walked with the true table, and the loop's members there, which pass."""
    module, labels = _GRIDS[sector]
    members, _ = check_words(module._LATTICE, labels,
                             list(zip(module._MOVES)), plan, TOL_EIGEN,
                             word_name)
    assert all(r.passed for r in members), sector
    return module._LATTICE, labels


@pytest.mark.parametrize("sector, kind", [("2d", "R-"), ("3d", "A2d")])
def test_the_rule_fails_exactly_the_moves_with_a_wrong_coefficient(
        sector, kind, monkeypatch):
    """One table entry claims four times the true squared coefficient.  The
    chains were walked with the true table, so only the rule reads the wrong
    entry: each interior member of that move fails by |c - 2c|/2c = 1/2,
    and every other member still passes."""
    plan = SamplePlan(seed=33, count=8)
    lat, labels = _warm_moves(sector, plan)
    move = lat.moves[kind]
    monkeypatch.setitem(lat.moves, kind, move._replace(
        coeff_sq=lambda label: 4 * move.coeff_sq(label)))
    walked = len(walk.table)
    members, _ = check_words(lat, labels, list(zip(lat.moves)), plan,
                             TOL_EIGEN, word_name)
    assert len(walk.table) == walked  # no chain read the fault
    failed = 0
    for r, (label, k) in zip(members, product(labels, lat.moves)):
        wrong = k == kind and "coefficient" in r.data
        assert r.passed != wrong, r.name
        if wrong:
            assert r.name == f"{kind} at {label}"
            assert r.relative == pytest.approx(0.5, rel=1e-9)
            failed += 1
    assert failed > 0


@pytest.mark.parametrize("sector, kind", [("2d", "R-"), ("3d", "A2")])
def test_a_nonzero_coefficient_off_the_lattice_is_an_error(
        sector, kind, monkeypatch):
    plan = SamplePlan(seed=33, count=8)
    lat, labels = _warm_moves(sector, plan)
    move = lat.moves[kind]
    monkeypatch.setitem(lat.moves, kind, move._replace(
        coeff_sq=lambda label: move.coeff_sq(label) + 1))
    walked = len(walk.table)
    with pytest.raises(ValueError, match="zero target with nonzero coefficient"):
        check_words(lat, labels, list(zip(lat.moves)), plan, TOL_EIGEN,
                    word_name)
    assert len(walk.table) == walked


# -- the tables -------------------------------------------------------------------

def _word_product(moves, label, word) -> Fraction:
    """Exact product of the squared coefficients along a word, from labels
    alone."""
    prod = Fraction(1)
    for kind in word:
        prod *= moves[kind].coeff_sq(label)
        label = moves[kind].target(label)
    return prod


def test_3d_normalizations_are_word_products():
    """c_squared is the product over the paired descent, and n! over the
    raising chain, exactly through n = 8."""
    moves = osc3d._MOVES
    for n in range(9):
        top = QNum3D(n, n)
        assert _word_product(moves, QNum3D(0, 0), ("A2d",) * n) \
            == math.factorial(n)
        for m in range(-n, n + 1, 2):
            assert _word_product(moves, top, ("A1d", "A2") * ((n - m) // 2)) \
                == c_squared(n, m), (n, m)


def test_3d_round_trips_carry_the_pair_energy():
    """Both round-trip words of the pair ladders have coefficient exactly
    (n + m)(n - m + 2)/4 through n = 8; the one from m = -n is an edge."""
    for n in range(9):
        for m in range(-n, n + 1, 2):
            want = osc3d.pair_energy(n, m) ** 2
            _, target, got = reach(osc3d._MOVES, QNum3D(n, m),
                                   ("A1d", "A2", "A1", "A2d"))
            assert got == want and target == (QNum3D(n, m) if want else None)
            if m - 2 >= -n:
                assert reach(osc3d._MOVES, QNum3D(n, m - 2),
                             ("A1", "A2d", "A1d", "A2"))[2] == want


def test_every_move_leaves_the_lattice_exactly_where_its_coefficient_vanishes():
    labels = [(ld._MOVES, qn) for twol in range(7) for qn in valid_states(twol)]
    labels += [(osc3d._MOVES, QNum3D(n, m, n3, n4))
               for n in range(5) for m in range(-n, n + 1, 2)
               for n3 in range(3) for n4 in range(3)]
    for moves, label in labels:
        for kind, move in moves.items():
            assert (move.target(label) is None) == (move.coeff_sq(label) == 0), \
                (kind, label)
