"""Command-line frontend: exit codes, formats, seeding, determinism, and the
one usage-error boundary in `cli._dispatch`."""
import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

from shapeinv import cli, ladders2d, osc3d
from shapeinv.cli import (EIGEN2D_MAX_TWOL, OSC3D_MAX_LEVEL, SHAPE2D_MAX_TWOL,
                          _plan_of, _tol_of, build_parser, main)
from shapeinv.dsl import GENERATOR_NAMES, MAX_PRODUCT_SIZE, parse_and_build
from shapeinv.suite import SuiteConfig, report_json, run_suite
from shapeinv.verify import PlanDegenerate


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors surface this way
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check --------------------------------------------------------------------

@pytest.mark.parametrize("expr", ["[Lp, Lm] - 2*L3", "[L3, Rp]"])
def test_check_identities_pass(expr, capsys):
    code, out, _ = run_cli(["check", expr, "--points", "8"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "checks: 1 passed / 0 failed" in out


def test_check_failure_exits_one(capsys):
    code, out, _ = run_cli(["check", "Lp - Rp", "--points", "8"], capsys)
    assert code == 1
    assert "[FAIL]" in out
    assert "checks: 0 passed / 1 failed" in out


def test_check_parse_error_exits_two(capsys):
    code, _, err = run_cli(["check", "Foo(1)"], capsys)
    assert code == 2
    assert "unknown generator" in err
    assert "position" in err


def test_check_json_document(capsys):
    code, out, _ = run_cli(["check", "[Lp, Lm] - 2*L3", "--points", "8",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expression"] == "[Lp, Lm] - 2*L3"
    assert doc["lattice"] is None
    assert doc["checks"][0]["pass"] is True
    assert doc["summary"] == "checks: 1 passed / 0 failed"


def test_check_threads_frequency(capsys):
    code, _, _ = run_cli(["check", "[A1, A1d] - 1", "--omega", "1/2",
                          "--points", "8"], capsys)
    assert code == 0


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "L3" + ")" * 3000,
    "[" * 1500 + "L3, L3]" + ", L3]" * 1499,
    "-" * 3000 + "L3",
], ids=["parentheses", "brackets", "unary-minus"])
def test_check_deep_nesting_exits_two(expr, capsys):
    # '--' keeps a leading '-' from being read as an option
    code, _, err = run_cli(["check", "--points", "8", "--", expr], capsys)
    assert code == 2
    assert "nested deeper" in err


def test_check_leading_minus_needs_double_dash(capsys):
    code, _, err = run_cli(["check", "-L3", "--points", "8"], capsys)
    assert code == 2
    assert "must follow '--'" in err
    assert "shapeinv check -- -L3" in err
    code, out, _ = run_cli(["check", "--points", "8", "--", "-L3"], capsys)
    assert code == 1
    assert "checks: 0 passed / 1 failed" in out


@pytest.mark.parametrize("expr,product", [
    ("Lp*Lp*Lp*Lp*Lp*Lp", "Lp*Lp*Lp*Lp*Lp"),
    ("[Lp*Lp*Lp, Lm*Lm*Lm]", "[Lp*Lp*Lp, Lm*Lm*Lm]"),
], ids=["power", "bracket"])
def test_check_oversized_product_is_a_usage_error(expr, product, capsys):
    # refused before it is composed: the sixth power would take over 10 s
    code, out, err = run_cli(["check", expr, "--points", "8"], capsys)
    assert code == 2
    assert f"operator product {product} too large" in err
    assert f"(bound {MAX_PRODUCT_SIZE})" in err
    assert "Traceback" not in err and not out


def test_fourth_power_stays_under_the_product_bound():
    assert parse_and_build("Lp*Lp*Lp*Lp").param is None


def test_check_rejects_nonpositive_frequency(capsys):
    code, _, err = run_cli(["check", "Hm", "--omega", "-1"], capsys)
    assert code == 2
    assert "frequency must be positive" in err


@pytest.mark.parametrize("argv,fragment", [
    (["check", "L3", "--points", "0"], "at least 1"),
    (["check", "L3", "--points", "-1"], "at least 1"),
    (["check", "L3", "--points", "two"], "at least 1"),
    (["check", "L3", "--points", "1.5"], "at least 1"),
    (["shape2d", "--twol", "2", "--points", "0"], "at least 1"),
    (["dump", "Lp", "--points", "0"], "at least 1"),
    (["suite", "--points", "0"], "at least 1"),
    (["osc3d", "--n", "0", "--m", "0", "--points", "-1"], "at least 1"),
    (["eigen2d", "--twol", "2", "--q", "0", "--m", "0", "--points", "-3"],
     "at least 1"),
    (["check", "L3", "--tol", "nan"], "positive finite"),
    (["check", "L3", "--tol", "inf"], "positive finite"),
    (["check", "L3", "--tol", "0"], "positive finite"),
    (["check", "L3", "--tol", "-1"], "positive finite"),
    (["suite", "--tol", "nan"], "positive finite"),
    (["check", "L3", "--tol", "tiny"], "positive finite"),
])
def test_bad_points_or_tolerance_is_a_usage_error(argv, fragment, capsys):
    # argparse rejects the value before any check runs
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert fragment in err
    assert "Traceback" not in err and not out


# -- eigen2d ------------------------------------------------------------------

def test_eigen2d_text_report(capsys):
    code, out, _ = run_cli(["eigen2d", "--twol", "2", "--q", "0", "--m", "0",
                            "--points", "8"], capsys)
    assert code == 0
    assert "eigenvalue: 2" in out
    assert "checks: 4 passed / 0 failed" in out


def test_eigen2d_half_integer_level_json(capsys):
    code, out, _ = run_cli(["eigen2d", "--twol", "3", "--q", "1", "--m", "2",
                            "--points", "8", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["eigenvalue"] == "15/4"
    assert doc["state"] == {"twol": 3, "q": 1, "m": 2}
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("argv,fragment", [
    (["eigen2d", "--twol", "2", "--q", "3", "--m", "0"], "|q| <= 2"),
    (["eigen2d", "--twol", "2", "--q", "0", "--m", "1"], "parity"),
    (["eigen2d", "--twol", "-1", "--q", "0", "--m", "0"], "|q| <= -1"),
])
def test_eigen2d_invalid_state_names_the_invariant(argv, fragment, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert fragment in err


# -- shape2d ------------------------------------------------------------------

def test_shape2d_level_checks(capsys):
    code, out, _ = run_cli(["shape2d", "--twol", "2", "--points", "6"], capsys)
    assert code == 0
    assert "level: 2l=2" in out
    assert "0 failed" in out


def test_shape2d_state_adds_reconstruction(capsys):
    code, out, _ = run_cli(["shape2d", "--twol", "2", "--q", "2", "--m", "0",
                            "--points", "6"], capsys)
    assert code == 0
    assert "(state q=2 m=0)" in out
    assert "annihilates the state" in out


def test_shape2d_flag_pairing(capsys):
    code, _, err = run_cli(["shape2d", "--twol", "2", "--q", "1"], capsys)
    assert code == 2
    assert "--q and --m must be given together" in err


def test_shape2d_negative_level(capsys):
    code, _, err = run_cli(["shape2d", "--twol", "-2"], capsys)
    assert code == 2
    assert "nonnegative" in err


# The shape2d report is the one output that shows the 2-D ladder actions'
# member names and data, so its bytes are pinned per level and for one state.
SHAPE2D_DIGESTS = {
    ("--twol", "0"):
        "bffc71406581622ac883e4319d7dbe7343195421ab9446920eaff5bc685867c9",
    ("--twol", "1"):
        "aac0326ec563f35e08b0fe18a9a4f5037d505e934827016ff99d62a6d5c73dcc",
    ("--twol", "2"):
        "72072b043e243aea2152b35b3e113ee091c16b3bede00c4e60618848e5715536",
    ("--twol", "3"):
        "125a1e48e354f1d5056c2051aa0f4fa235fb4713dd9325f993ac45d5f6fb0447",
    ("--twol", "4"):
        "b546c62bbae874408069012ccf803e0e8bfa2e0dfa30a3a4fd49646fcacbb730",
    ("--twol", "4", "--q", "2", "--m", "0"):
        "07fe0891f7b4bee0e2fe0f9431a028ded06066b9fc8bb75ea2f3039e28d8ea72",
}


@pytest.mark.parametrize("args", list(SHAPE2D_DIGESTS), ids=" ".join)
def test_shape2d_report_digest(args, capsys):
    """The digests were recorded on Python 3.11.7 with the x86-64 libm;
    another libm may round the last bits of a residual differently."""
    code, out, _ = run_cli(["shape2d", *args, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SHAPE2D_DIGESTS[args]


# -- osc3d --------------------------------------------------------------------

def test_osc3d_state_report(capsys):
    code, out, _ = run_cli(["osc3d", "--n", "2", "--m", "0",
                            "--points", "8"], capsys)
    assert code == 0
    assert "energy: 4" in out
    assert "pair scalar: 2" in out
    assert "0 failed" in out


def test_osc3d_requires_state_flags(capsys):
    code, _, err = run_cli(["osc3d", "--n", "2"], capsys)
    assert code == 2
    assert "--n and --m are required" in err


def test_osc3d_invalid_state(capsys):
    code, _, err = run_cli(["osc3d", "--n", "2", "--m", "1"], capsys)
    assert code == 2
    assert "parity" in err or "opposite" in err or "odd" in err


def test_osc3d_sector_suite(capsys):
    code, out, _ = run_cli(["osc3d", "--suite", "--points", "4",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "shapeinv[3d]"
    assert all(e["pass"] for e in doc["checks"])
    assert len(doc["checks"]) == 19


# -- dump ---------------------------------------------------------------------

_EXPECTED_MATCH = {}
for _n in GENERATOR_NAMES:
    if _n in ("A1", "A1d"):
        _EXPECTED_MATCH[_n] = False
    elif _n in ("a3", "a3d", "a4", "a4d"):
        _EXPECTED_MATCH[_n] = None
    else:
        _EXPECTED_MATCH[_n] = True


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_dump_every_name(name, capsys):
    code, out, _ = run_cli(["dump", name, "--format", "json",
                            "--points", "40"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == name
    assert doc["match"] is _EXPECTED_MATCH[name]
    assert doc["derived"]["form"]
    if _EXPECTED_MATCH[name] is None:
        assert doc["printed"] is None
    else:
        assert doc["printed"]["form"]
    assert doc["notes"]


def test_dump_reduced_generator_carries_full_form(capsys):
    code, out, _ = run_cli(["dump", "Lm", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["full_form"]


def test_dump_text_mode_shows_mismatch(capsys):
    code, out, _ = run_cli(["dump", "A1d"], capsys)
    assert code == 0
    assert "match: no" in out
    assert "derived:" in out and "printed:" in out


def test_dump_unknown_name_rejected(capsys):
    code, _, err = run_cli(["dump", "Foo"], capsys)
    assert code == 2
    assert "invalid choice" in err


# -- plumbing -----------------------------------------------------------------

def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["check", "Lp - Rp", "--points", "8",
                            "--format", "json", "--out", str(path)], capsys)
    assert code == 1
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["checks"][0]["pass"] is False


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    path = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
    code, out, err = run_cli(["check", "[Lp, Lm] - 2*L3", "--points", "8",
                              "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("shapeinv check: ") and repr(str(path)) in err


# -- the usage-error boundary --------------------------------------------------

def assert_usage_error(command, code, out, err):
    """Exit 2 with one stderr line from the boundary and no report."""
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and err.startswith(f"shapeinv {command}: ")
    assert "Traceback" not in err


def _must_not_run(*args, **kwargs):
    pytest.fail("a check ran before the inputs were checked")


@pytest.mark.parametrize("argv,fragment", [
    (["shape2d", "--twol", str(SHAPE2D_MAX_TWOL + 1), "--q", "9", "--m", "0"],
     f"--twol must be at most {SHAPE2D_MAX_TWOL}"),
    (["shape2d", "--twol", "4", "--q", "9", "--m", "0"], "|q| <= 4"),
    (["shape2d", "--twol", "4", "--q", "0", "--m", "1"], "parity"),
    (["eigen2d", "--twol", str(EIGEN2D_MAX_TWOL + 1), "--q", "0",
      "--m", str((EIGEN2D_MAX_TWOL + 1) % 2)],
     f"--twol must be at most {EIGEN2D_MAX_TWOL}"),
    (["osc3d", "--n", "0", "--m", "0", "--n4", str(OSC3D_MAX_LEVEL + 1)],
     f"n + n3 + n4 must be at most {OSC3D_MAX_LEVEL}"),
    (["osc3d", "--n", "256", "--m", "0"],
     f"n + n3 + n4 must be at most {OSC3D_MAX_LEVEL}"),
    (["osc3d", "--n", "0", "--m", "0", "--n3", "300"],
     f"n + n3 + n4 must be at most {OSC3D_MAX_LEVEL}"),
    (["osc3d", "--n", "0", "--m", "0", "--n4", "300"],
     f"n + n3 + n4 must be at most {OSC3D_MAX_LEVEL}"),
], ids=["shape2d above its bound", "q out of range", "parity",
        "eigen2d above its bound", "osc3d above its bound", "osc3d n 256",
        "osc3d n3 300", "osc3d n4 300"])
def test_bad_labels_are_refused_before_any_check(argv, fragment, monkeypatch,
                                                 capsys):
    for check in ("verify_eigen", "verify_ladder_actions"):
        monkeypatch.setattr(ladders2d, check, _must_not_run)
    for builder in ("psi_closed", "psi_ladder", "verify_eigen",
                    "ladder_closed_ratio", "verify_pair_eigen"):
        monkeypatch.setattr(osc3d, builder, _must_not_run)
    code, out, err = run_cli(argv, capsys)
    assert_usage_error(argv[0], code, out, err)
    assert fragment in err


def test_out_is_opened_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    path = tmp_path / "no" / "r.json"
    code, out, err = run_cli(["suite", "--out", str(path)], capsys)
    assert_usage_error("suite", code, out, err)
    assert f"cannot write the report to {str(path)!r}" in err


def _inconclusive(*args, **kwargs):
    raise PlanDegenerate("probe: divisor vanishes at 2/2 points")


@pytest.mark.parametrize("module,check,argv", [
    (ladders2d, "verify_eigen",
     ["eigen2d", "--twol", "2", "--q", "0", "--m", "0"]),
    (ladders2d, "verify_ladder_actions", ["shape2d", "--twol", "2"]),
    (osc3d, "verify_eigen", ["osc3d", "--n", "2", "--m", "0"]),
], ids=["eigen2d", "shape2d", "osc3d"])
def test_an_inconclusive_plan_is_a_usage_error(module, check, argv,
                                               monkeypatch, capsys):
    monkeypatch.setattr(module, check, _inconclusive)
    code, out, err = run_cli(argv, capsys)
    assert_usage_error(argv[0], code, out, err)
    assert "divisor vanishes at 2/2 points" in err


def _is_usage_error(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_usage_error")


def test_the_cli_has_one_error_boundary():
    """Only `_dispatch` and the argparse type `_checked` catch exceptions,
    and every usage error comes from the handlers of one `try` there."""
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    owner = {}
    for fn in ast.walk(tree):  # breadth first: outer functions first
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    stray = sorted({owner.get(node, "<module>") for node in ast.walk(tree)
                    if isinstance(node, ast.ExceptHandler)}
                   - {"_dispatch", "_checked"})
    assert not stray, "exceptions caught outside cli._dispatch: " \
        + ", ".join(stray)
    sites = [node for node in ast.walk(tree) if isinstance(node, ast.Try)
             and any(map(_is_usage_error, ast.walk(node)))]
    assert len(sites) == 1 and owner[sites[0]] == "_dispatch"
    in_handlers = {node for handler in sites[0].handlers
                   for node in ast.walk(handler)}
    assert all(node in in_handlers for node in ast.walk(tree)
               if _is_usage_error(node))


def test_seed_env_matches_explicit_flag(monkeypatch, capsys):
    argv = ["check", "Lp - Rp", "--points", "8", "--format", "json"]
    monkeypatch.setenv("SHAPEINV_SEED", "5")
    _, via_env, _ = run_cli(argv, capsys)
    monkeypatch.delenv("SHAPEINV_SEED")
    _, via_flag, _ = run_cli(argv + ["--seed", "5"], capsys)
    assert via_env == via_flag
    # an explicit flag wins over the environment
    monkeypatch.setenv("SHAPEINV_SEED", "7")
    _, via_both, _ = run_cli(argv + ["--seed", "5"], capsys)
    assert via_both == via_flag


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("SHAPEINV_SEED", "abc")
    code, _, err = run_cli(["check", "Lp"], capsys)
    assert code == 2
    assert "SHAPEINV_SEED must be an integer" in err


def test_config_helpers():
    parse = build_parser().parse_args
    args = parse(["check", "Lp", "--seed", "4", "--points", "9",
                  "--tol", "1e-6"])
    assert (_plan_of(args, 32).seed, _plan_of(args, 32).count) == (4, 9)
    assert _tol_of(args, 1e-10) == 1e-6
    bare = parse(["check", "Lp", "--seed", "4"])
    assert _plan_of(bare, 32).count == 32
    assert _tol_of(bare, 1e-10) == 1e-10


def test_suite_flags_map_onto_the_suite_config(capsys):
    code, out, _ = run_cli(["osc3d", "--suite", "--seed", "5", "--points", "4",
                            "--tol", "1e-6", "--format", "json"], capsys)
    direct = run_suite(SuiteConfig(seed=5, points=4, tol_eigen=1e-6),
                       sectors=("3d",))
    assert out == report_json(direct)
    assert code == (0 if all(e["pass"] for e in direct["checks"]) else 1)


def test_reports_do_not_depend_on_hash_randomization():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    argv = [sys.executable, "-m", "shapeinv.cli", "check", "Lp - Rp",
            "--points", "8", "--format", "json"]
    first = subprocess.run(argv, capture_output=True, env=env)
    env["PYTHONHASHSEED"] = "99"
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout
    # a child that cannot import the package exits 1 with empty output too
    report = json.loads(first.stdout)
    assert report["expression"] == "Lp - Rp"
    assert [c["pass"] for c in report["checks"]] == [False]
