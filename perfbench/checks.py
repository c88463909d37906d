"""Correctness checks that the benchmark makes apart from the program.

Nothing here imports `shapeinv`: the expected values are computed from the
state labels and from the commutation relations, so a fault in the program's
own bookkeeping (`QNum2D.eigenvalue`, `QNum3D.energy`, the suite's pass
flags) cannot vouch for itself.
"""
from __future__ import annotations

from fractions import Fraction

# Relative tolerance on a measured eigenvalue ratio and on its dispersion
# over the sample points; the same figure the package uses for eigen checks.
RATIO_TOL = 1e-8

SUITE_CHECKS = 39
SUITE_FAULTS = 7
FAULT_PREFIX = "fault: "

EXIT_ZERO, EXIT_NONZERO, EXIT_USAGE = 0, 1, 2

NESTED_DEPTH = 3000

# Known answers for `shapeinv check EXPR`, written from the relations
#   [Lp, Lm] = 2 L3, [L3, Lp] = Lp, [L3, Lm] = -Lm,
#   [Rp, Rm] = -2 R3, every L commutes with every R,
#   Casimir = 4 * ((Lp Lm + Lm Lp)/2 + L3^2) (the reference normalization),
#   [a_i, a_j^dagger] = delta_ij for the cartesian and combination ladders.
# Zero identities exit 0, nonzero controls exit 1, usage errors exit 2.
DSL_TABLE = (
    ("[Lp, Lm] - 2*L3", EXIT_ZERO),
    ("[L3, Lm] + Lm", EXIT_ZERO),
    ("[Rp, Rm] + 2*R3", EXIT_ZERO),
    ("[Lp, Rm]", EXIT_ZERO),
    ("[Lp*Lp, Lm] - 2*(Lp*L3 + L3*Lp)", EXIT_ZERO),
    ("[Lp, [Lm, L3]] + [Lm, [L3, Lp]] + [L3, [Lp, Lm]]", EXIT_ZERO),
    ("[Casimir, Lp*Lm]", EXIT_ZERO),
    ("Casimir - 2*(Lp*Lm + Lm*Lp) - 4*L3*L3", EXIT_ZERO),
    ("[a3, a3d] - 1", EXIT_ZERO),
    ("[a3, a4d]", EXIT_ZERO),
    ("[A1, A1d] - 1", EXIT_ZERO),
    ("[A1, A2d]", EXIT_ZERO),
    ("[Lp, Lm] - L3", EXIT_NONZERO),
    ("Lp*Lp", EXIT_NONZERO),
    ("Lp*Lp*Lp", EXIT_NONZERO),
    ("[a3, a3d]", EXIT_NONZERO),
    ("Hq + Hm", EXIT_USAGE),
    ("(" * NESTED_DEPTH + "L3" + ")" * NESTED_DEPTH, EXIT_USAGE),
)


def level_eigenvalue(twol: int) -> Fraction:
    """l(l+1) with l = twol/2: the 2-D eigenvalue at doubled level twol."""
    l = Fraction(twol, 2)
    return l * (l + 1)


def oscillator_energy(n: int, n3: int, n4: int, omega) -> Fraction:
    """omega (n + n3 + n4 + 2): the 3-D eigenvalue of the reduced family."""
    return Fraction(omega) * (n + n3 + n4 + 2)


def ratio_ok(ratio: complex, dispersion: float, expected: Fraction) -> bool:
    """A measured eigenvalue ratio is right when its mean sits on the
    expected value and its spread over the points is at roundoff level,
    both relative to max(1, |expected|) so that l = 0 is judged too."""
    scale = max(1.0, abs(float(expected)))
    return (abs(complex(ratio) - float(expected)) <= RATIO_TOL * scale
            and dispersion <= RATIO_TOL * scale)


def exit_ok(code, expected: int) -> bool:
    return type(code) is int and code == expected


def suite_report_ok(report: dict) -> bool:
    """Every registered check passes, the seven fault controls included."""
    checks = report.get("checks")
    if not isinstance(checks, list) or len(checks) != SUITE_CHECKS:
        return False
    faults = [c for c in checks if c.get("name", "").startswith(FAULT_PREFIX)]
    return (len(faults) == SUITE_FAULTS
            and all(c.get("pass") is True for c in checks)
            and report.get("summary") == f"checks: {SUITE_CHECKS} passed / 0 failed")
