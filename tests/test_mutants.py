"""Mutant matrix: what each check catches.

Each row is a single-constant mutant of the package: a closed-form scalar
moved by a small step.  The row runs its sector's checks in-process, cold,
at seed 7, and pins the exact set of non-fault checks that fail.  A row
whose set is empty would be a mutant that no check kills; every row here
is killed.  The 7 fault controls of the suite are mutants picked by hand;
this matrix keeps the others as tests, so the suite's 39 entries stay as
they are (mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).
"""
from fractions import Fraction

import pytest

from shapeinv import clear_caches, ladders2d, osc3d
from shapeinv.suite import FAULT_PREFIX, SuiteConfig, run_suite


def _shifted(owner, name, step):
    """Mutate `owner.name` to return its value plus step(*args)."""
    original = getattr(owner, name)
    return owner, name, lambda *args: original(*args) + step(*args)


def _last_m_dropped():
    original = ladders2d.degeneracy
    return ladders2d, "degeneracy", lambda twol, q: original(twol, q)[:-1]


# (row id, sector, mutant as (owner, attribute, replacement), failed checks)
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
    monkeypatch.setattr(*mutant())
    assert _failed(sector) == failed
