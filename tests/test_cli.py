"""Command-line frontend: exit codes, formats, seeding, determinism, and the
one usage-error boundary in `cli._dispatch`."""
import ast
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from shapeinv import cli, ladders2d, osc3d
from shapeinv.cli import (EIGEN2D_MAX_TWOL, MAX_POINTS, OSC3D_MAX_LEVEL,
                          SHAPE2D_MAX_TWOL, _plan_of, _tol_of, build_parser,
                          main)
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
    ("Lp * Lp * Lp * Lp * Lp * Lp", "Lp * Lp * Lp * Lp * Lp"),
], ids=["power", "bracket", "spaced-power"])
def test_check_oversized_product_is_a_usage_error(expr, product, capsys):
    # refused before it is composed: the sixth power would take over 10 s;
    # the message quotes the product's source text
    code, out, err = run_cli(["check", expr, "--points", "8"], capsys)
    assert code == 2
    assert f"operator product {product} too large" in err
    assert f"(bound {MAX_PRODUCT_SIZE})" in err
    assert "Traceback" not in err and not out


def test_fourth_power_stays_under_the_product_bound():
    assert parse_and_build("Lp*Lp*Lp*Lp", Fraction(1))[0].param is None


@pytest.mark.parametrize("expr,message", [
    ("Hq + Hm )", "cannot build operator: parameter clash: 'q' vs 'm'"),
    ("Lp*Lp )", "unexpected trailing input ')' (at position 6)"),
])
def test_check_reports_the_first_error_in_the_text(expr, message, capsys):
    # the operator is built as the text is parsed, so a build error is
    # reported before a syntax error that comes later in the text
    code, out, err = run_cli(["check", expr, "--points", "8"], capsys)
    assert code == 2
    assert err == f"shapeinv check: {message}\n" and not out


@pytest.mark.parametrize("expr,code,relative", [
    ("1000000*L3 - L3*1000000", 0, None),
    ("(1000000*L3 - L3*1000000)", 0, None),
    ("[1000*Lp, 1000*Lm] - 2000000*L3", 0, None),
    ("[Lp, Lm] - L3", 1, 0.5),
])
def test_check_residual_is_relative_to_the_largest_summand(expr, code,
                                                           relative, capsys):
    # an absolute residual fails exact identities with large coefficients
    got, out, _ = run_cli(["check", expr, "--seed", "7", "--format", "json"],
                          capsys)
    assert got == code
    rel = json.loads(out)["checks"][0]["relative_residual"]
    if relative is None:
        assert rel < 1e-15
    else:
        assert rel == pytest.approx(relative, rel=1e-12)


NINES = "9" * 400  # a constant past the float range


@pytest.mark.parametrize("expr", [f"{NINES}*L3", f"i*{NINES}*Lp",
                                  f"Lm({NINES})", f"Hq({NINES})",
                                  f"13{'0' * 307}*(1+i)"],
                         ids=["coefficient", "imaginary-coefficient",
                              "ladder-label", "hamiltonian-label",
                              "modulus-past-the-float-range"])
def test_check_constant_past_the_float_range_exits_two(expr, capsys):
    # the constant fails at every sample point, or its modulus overflows
    # there, so no point can decide
    code, out, err = run_cli(["check", expr, "--seed", "7"], capsys)
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("shapeinv check: ")
    assert "32/32 sample points skipped" in err
    assert "Traceback" not in err


# The expressions of the dsl-check benchmark workload, with the exit code and
# the SHA-256 of what `check EXPR --seed 7 --format json` writes (stdout,
# then stderr).
CHECK_DIGESTS = {
    "[Lp, Lm] - 2*L3": (
        0, "5220d10f712f5d5e77568af566133764f3f2137ff1872da8b4b667a59fd5fa81"),
    "[L3, Lm] + Lm": (
        0, "ca9cc509bbe521803253194fe4e61b6a2e64c96cadfd735ce5a9a4cf9cf165d3"),
    "[Rp, Rm] + 2*R3": (
        0, "5ca442be2d5cb9d8beb92963f8426a772057a3efe1eec65217965ab129978cdf"),
    "[Lp, Rm]": (
        0, "43f3c15bc206bfe75445f89a874d61f90e92234ad84694dfa3bc2dcbac0ab3fb"),
    "[Lp*Lp, Lm] - 2*(Lp*L3 + L3*Lp)": (
        0, "2fc4410053b442057a124b8c86a2ec6d870fc4ab9812f5e11d3c96a9fa318870"),
    "[Lp, [Lm, L3]] + [Lm, [L3, Lp]] + [L3, [Lp, Lm]]": (
        0, "425fba519ad2773549542fd7abc554e4a630d3b41732afa1f2783c5c1696a740"),
    "[Casimir, Lp*Lm]": (
        0, "f67aaa14230af97338449e9da7b646fa48ff529ce90dae99bb654e85d67f72f9"),
    "Casimir - 2*(Lp*Lm + Lm*Lp) - 4*L3*L3": (
        0, "f12bc06016fabcd735d918140692ba972235936d3c226e096b2331fbef450cc4"),
    "[a3, a3d] - 1": (
        0, "23cf02f64cf48eab6de1c780ca75751fb02bd93a460f3755d84b5481ea9a912e"),
    "[a3, a4d]": (
        0, "f114922cd873a62b395f0a55b35f130fae141282a81fca19a44de21d21c82172"),
    "[A1, A1d] - 1": (
        0, "aa1433673beaf0a4ab16f87f8f03f33e56f0365105124f9d327b125890619270"),
    "[A1, A2d]": (
        0, "659353eda78183d137bfe43503d0f83c1e5b2651babbe23e37d492785ad5c198"),
    "[Lp, Lm] - L3": (
        1, "74509c664bb76436dd8e85b54ebb005c253f7efe26fdf4fc709e4e007510e29c"),
    "Lp*Lp": (
        1, "01cfb7ee3b813b881dd9f50441c19ef03ca0366fc40a6900daa55363b7fbca33"),
    "Lp*Lp*Lp": (
        1, "2849dd0e7bc6b39c2c39caf82257f4001adb3eff1f078616aa28f753bb503768"),
    "[a3, a3d]": (
        1, "11224b16fb1cec910b12edb354c6b5534fb7f54b603058520ada97e4b71c67d1"),
    "Hq + Hm": (
        2, "894744b846acf7958333dfe683e2cfe1d2e36104443b160d634c8f406d0ce866"),
    "(" * 3000 + "L3" + ")" * 3000: (
        2, "c62c3c7be0f37f872d50bb264613160d07db78d92aa608428da9f153a0d4a7b0"),
}


@pytest.mark.parametrize("expr", list(CHECK_DIGESTS),
                         ids=lambda e: e if len(e) < 60 else "nested")
def test_check_report_digest(expr, capsys):
    """The digests were recorded on Python 3.11.7 with the x86-64 libm;
    another libm may round the last bits of a residual differently."""
    code, out, err = run_cli(["check", expr, "--seed", "7",
                              "--format", "json"], capsys)
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    assert (code, digest) == CHECK_DIGESTS[expr]


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
    (["check", "L3", "--points", str(MAX_POINTS + 1)], "at most 1000"),
    (["suite", "--points", str(MAX_POINTS + 1)], "at most 1000"),
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
    # a negative level is refused as such, not through the |q| bound
    (["eigen2d", "--twol", "-1", "--q", "0", "--m", "0"], "2l >= 0"),
])
def test_eigen2d_invalid_state_names_the_invariant(argv, fragment, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert fragment in err
    assert err.count("\n") == 1 and err.startswith("shapeinv eigen2d: ")


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


# The osc3d and eigen2d state reports, text and json, at the default seed and
# points: osc3d shows every pair round trip's member report, and eigen2d the
# four eigen relations of one state.
STATE_DIGESTS = {
    ("osc3d", "--n", "2", "--m", "0"): (
        "8794ebbe5051273ce7ad6696392cd0db059c762ebaba35c6d498b861abf1f1cb",
        "bc0288865815a205cf0c4255ac8dfb781314d3ef424cdcc18ef75f11589156c7"),
    ("osc3d", "--n", "3", "--m", "1", "--omega", "2"): (
        "97a58836f38c55d4d1f9c96d494ad57a43bd182b83ab1b1c0b86d96b9b058abf",
        "f865639af9e228cd5297c4b1192b7deb50ad300a43fc4897aa4b9a76cd43ac56"),
    ("osc3d", "--n", "2", "--m", "-2", "--n3", "1"): (
        "a78cee186eafc7002070b34cdf16cb225afa69155f0c82ce4d283154614c0943",
        "f0c1a689f4411cb5eb49bbf92457cd359b6f4adf4c7ee43c2f50098523f20a1e"),
    ("eigen2d", "--twol", "2", "--q", "0", "--m", "0"): (
        "16204e012a9821d951399e419fc903937cbde3891d021d003b47b64e486371fe",
        "2e51a045063cbbf98bc0b829779c733319165a2db178291265786215c143fbbd"),
    ("eigen2d", "--twol", "4", "--q", "1", "--m", "-1"): (
        "1e77442f66988f1b80cddc55ce06dd771473322ae5f0d19732c520e7a90aaaa2",
        "d864ef2fe491785d9ff796e094754ab2c7789827262e9d96185d1e7da49382d0"),
}


@pytest.mark.parametrize("args", list(STATE_DIGESTS), ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_state_report_digest(args, fmt, capsys):
    """The digests were recorded on Python 3.11.7 with the x86-64 libm;
    another libm may round the last bits of a residual differently."""
    code, out, err = run_cli([*args, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STATE_DIGESTS[args][fmt == "json"]


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


# The SHA-256 of what `dump NAME --format FORMAT` writes at the default seed,
# for every name and both formats; the bytes do not depend on PYTHONHASHSEED.
DUMP_DIGESTS = {
    ("Lp", "text"):
        "4eaa4b95c098aa9390e062f9652183173724ddcd41c296b8592e5c41c81cd2ca",
    ("Lp", "json"):
        "7f9361221859994f936ba6feaa33df32ccf49fe00c2e4bd8e545c91ce8d71743",
    ("Lm", "text"):
        "f9db1a059f351edc6051515a0a84e149c468e9e996491036f5ede75c88e55011",
    ("Lm", "json"):
        "47b72b90b1bb7ff029c7edb3d38122e2469cc388ac98aa23f5b6af3a0cd1dafb",
    ("L3", "text"):
        "67822ce8762409d5a76ee8b90f48e04843c5a4545dc2ed591542e4d776ac716f",
    ("L3", "json"):
        "7af14d07831b24adaef652710e673511e20c67faf35c875fc24f01638ef6d355",
    ("Rp", "text"):
        "0ec1d3fab55dbe7f068fc073baeec5e60cd8b144c93d2446218926b9517243c9",
    ("Rp", "json"):
        "6201f6a0a0d9fd83de8042533f289c34469e74bad6d08a0711891df2b231ab28",
    ("Rm", "text"):
        "e34c2a60f45ededfdc7124df7c7f07f029056d756007b6bd0d2459e5a11c7c5e",
    ("Rm", "json"):
        "ef5278a4ee941a142dee87afe17d6c75932286f622176bfa4f5a32cb6c753b1e",
    ("R3", "text"):
        "7d1596f8c35139a42e8590bb910a576835ff860f4f7516f1c7386d2e52b838ea",
    ("R3", "json"):
        "4eaecc94d8f61c885dbd393a27309a58be95095cb6c147bb80ae044daed0b841",
    ("A1", "text"):
        "80b583877eaf4dafbfbe8d2c08d62776a54d2d9ef262b8d869a639bce1adb42a",
    ("A1", "json"):
        "4ff30e1c846d88a8023e30694a189facd5f6a1bcc9d9f12750371bc2b7ac3d83",
    ("A1d", "text"):
        "8eb53114a6429386a8b451d2d6dc83e0d552a5dd412211859aabcb866609de58",
    ("A1d", "json"):
        "39036533d6be4ffbcd9685ce03ffea776702b439d6f5e65113b0531c33819336",
    ("A2", "text"):
        "61b1afac893c65da382592e8452e14fc325aa5d7c32ad1252c9914f46bb356f6",
    ("A2", "json"):
        "6d127167eeb6920f779e4fc87c2246ea9c80d49a34227c5e57af563245230b7b",
    ("A2d", "text"):
        "a9e432a3679476525f64063e04c00797230a0af803ecf7dc4ee7dc7c1405497b",
    ("A2d", "json"):
        "f1283f20c2925a687242b3a3d2a62cb75157390728213e605913d3619ffa2f76",
    ("a3", "text"):
        "bb957b22b8cef784214514c6cce4c2fb9a949e461355265bf6e7c872c90448ae",
    ("a3", "json"):
        "30e3f15d0b9dccffe7a09682ab54ab2fbbb395054a85b8ef5c72ef0e998142e6",
    ("a3d", "text"):
        "f94ce49681b383f6bef525778e39dff79535e4487991d8b876e3aefb0bfc5f74",
    ("a3d", "json"):
        "98c86ae3bd3e29b6a62845490ca65134e2ab16b84711248e547d0b69d905e43c",
    ("a4", "text"):
        "5ee902cfe3d7a883e30cd848ba81713349011d9fa8bc8f406cb5cd180d0f147a",
    ("a4", "json"):
        "9799d1acd48f8769a54a0a02513d0e21dd08b14093578a5b3c0a5518b631e54c",
    ("a4d", "text"):
        "5f5a0ac244e9223e1ab52b3fcbb5902a19d935bf636aa2e62af55a1169b21350",
    ("a4d", "json"):
        "ab4470da307b3dc26dbe4039b001b3735174d5fd88d23951162748edc2be5097",
    ("Casimir", "text"):
        "fd9aed547dde0af9a12018f90f1f8727fdb4454d23b96f8cf53ef56e36b7e6cc",
    ("Casimir", "json"):
        "17267b52852bf6be2af20268b4977b12ab58974fb4afea83c99bdfb8e8c6e0aa",
    ("Hq", "text"):
        "afc2918728164225e8331f516260cdcac6687a6c863e980079d7b6b8e9d00808",
    ("Hq", "json"):
        "6e6a2d13bbfeaa69ac58f69ab406735c0c2d1e58979c54b2f2e248a36d341e20",
    ("Hm", "text"):
        "fcf5c35a350685011f978f23f2c60f9ff2bc058157ca7977fd6294d804a744b1",
    ("Hm", "json"):
        "0a9dcc90919216292887c868885e214101862652839a85eaf06ecdc7e6b9e577",
}


@pytest.mark.parametrize("name,fmt", list(DUMP_DIGESTS))
def test_dump_report_digest(name, fmt, capsys):
    """Recorded on Python 3.11.7 with the x86-64 libm, as CHECK_DIGESTS."""
    code, out, err = run_cli(["dump", name, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_DIGESTS[name, fmt]


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


@pytest.mark.parametrize("argv", [
    ["suite", "--points", str(MAX_POINTS + 1)],
    ["check", "L3", "--points", str(MAX_POINTS + 1)],
], ids=["suite", "check"])
def test_too_many_points_are_refused_before_the_run(argv, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(cli, "run_suite", _must_not_run)
    monkeypatch.setattr(cli, "parse_and_build", _must_not_run)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and not out
    assert f"at most {MAX_POINTS}" in err and "Traceback" not in err


def test_the_point_bound_itself_is_accepted(capsys):
    code, out, _ = run_cli(["check", "[Lp, Lm] - 2*L3",
                            "--points", str(MAX_POINTS)], capsys)
    assert MAX_POINTS == 1000
    assert code == 0 and "PASS" in out


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
