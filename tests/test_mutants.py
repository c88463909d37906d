"""Mutant matrix: what each check catches.

Each row is a single-constant mutant of the package: a closed-form scalar
moved by a small step, or one move's squared coefficient in a sector's
move table scaled by 4.  The row runs its sector's checks in-process, cold,
at seed 7, and pins the exact set of non-fault checks that fail.  A row
whose set is empty would be a mutant that no check kills; every row here
is killed.  The 7 fault controls of the suite are mutants picked by hand;
this matrix keeps the others as tests, so the suite's 39 entries stay as
they are (mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).
"""
from fractions import Fraction
from functools import partial

import pytest

from shapeinv import clear_caches, ladders2d, osc3d
from shapeinv.suite import FAULT_PREFIX, SuiteConfig, run_suite


def _shifted(owner, name, step):
    """Mutate `owner.name` to return its value plus step(*args)."""
    original = getattr(owner, name)
    return owner, name, lambda *args: original(*args) + step(*args)


def _move_scaled(module, kind):
    """Mutate the squared coefficient of move `kind` in `module._MOVES`
    (the table the lattice walks and judges) to four times its value."""
    move = module._MOVES[kind]
    return module._MOVES, kind, move._replace(
        coeff_sq=lambda qn: 4 * move.coeff_sq(qn))


def _last_m_dropped():
    original = ladders2d.degeneracy
    return ladders2d, "degeneracy", lambda twol, q: original(twol, q)[:-1]


# (row id, sector, mutant as (owner, attribute or key, replacement), failed
# checks)
ROWS = [
    ("eigenvalue+1", "2d",
     lambda: _shifted(ladders2d.QNum2D, "eigenvalue", lambda qn: 1),
     {"2-D eigen grid"}),
    ("energy+omega", "3d",
     lambda: _shifted(osc3d.QNum3D, "energy", lambda qn: qn.omega),
     {"3-D eigen grid (closed form)", "spectrum bookkeeping"}),
    ("pair_energy+1", "3d",
     lambda: _shifted(osc3d, "pair_energy", lambda n, m: 1),
     {"3-D pair-ladder scalars"}),
    ("E_measured_closed+1", "2d",
     lambda: _shifted(ladders2d, "E_measured_closed", lambda *qn: 1),
     {"pair-ladder scalars"}),
    # an exact deviation far below any float tolerance
    ("E_measured_closed+1/10^12", "2d",
     lambda: _shifted(ladders2d, "E_measured_closed",
                      lambda *qn: Fraction(1, 10 ** 12)),
     {"pair-ladder scalars"}),
    ("N_closed+1", "2d",
     lambda: _shifted(ladders2d, "N_closed", lambda *qn: 1),
     {"pair-ladder scalars"}),
    ("degeneracy without its last m", "2d", _last_m_dropped,
     {"level degeneracies", "2-D one-step ladder coefficients"}),
    ("c_squared+1", "3d",
     lambda: _shifted(osc3d, "c_squared", lambda n, m: 1),
     {"transcription deviations isolated"}),
]
# each move's squared coefficient x4, by (sector, module, moves, failed checks)
MOVE_ROWS = [
    ("2d", ladders2d, ("R+", "R-"), {"2-D one-step ladder coefficients",
                                     "chain reconstructions",
                                     "pair-ladder scalars"}),
    ("2d", ladders2d, ("L+", "L-"), {"2-D one-step ladder coefficients",
                                     "pair-ladder scalars"}),
    ("3d", osc3d, ("A1d", "A2d", "A1", "A2"), {
        "3-D one-step ladder coefficients", "3-D pair-ladder scalars",
        "ascent pair target"}),
    ("3d", osc3d, ("a3d", "a3", "a4d", "a4"),
     {"3-D one-step ladder coefficients"}),
]
ROWS += [(f"{sector[0]}-D {kind} coeff_sq x4", sector,
          partial(_move_scaled, module, kind), failed)
         for sector, module, kinds, failed in MOVE_ROWS for kind in kinds]


@pytest.fixture
def cold():
    """Caches empty before the run, and again after it: a mutant's trees
    must not outlive its row."""
    clear_caches()
    yield
    clear_caches()


def _failed(sector: str) -> set:
    report = run_suite(SuiteConfig(seed=7), sectors=(sector,))
    return {e["name"] for e in report["checks"]
            if not e["pass"] and not e["name"].startswith(FAULT_PREFIX)}


@pytest.mark.parametrize("sector, mutant, failed",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_each_mutant_fails_exactly_its_checks(sector, mutant, failed,
                                              cold, monkeypatch):
    owner, name, value = mutant()
    patch = (monkeypatch.setitem if isinstance(owner, dict)
             else monkeypatch.setattr)
    patch(owner, name, value)
    assert _failed(sector) == failed
