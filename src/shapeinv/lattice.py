"""One ladder lattice for both sectors.

A `Lattice` is a sector's move table: each `Move` gives the operator at a
label, the label it leads to (None off the lattice) and its exact squared
coefficient, which vanishes exactly at an edge.  The lattice also owns each
label's chain: `path` names the seed and the word of moves that reach it,
`walk` builds the state, and `scale` is the chain state's size against the
coefficient-normalized family.  `check_moves` is the one-step actions loop
of both sectors: an edge move must annihilate, a nonzero coefficient on an
off-lattice target is an error, and one rule judges every interior move.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

from .opalg import apply_canonical
from .symx import Expr
from .verify import IdentityReport, check_proportional, check_zero


class Move(NamedTuple):
    """One ladder move: `op(label)` acts on the state at `label`, `delta`
    adds to the named label fields, and `coeff_sq(label)` is the exact
    squared coefficient of the move."""
    op: Callable
    delta: dict
    coeff_sq: Callable

    def target(self, label):
        """The label this move leads to, or None off the lattice."""
        try:
            return replace(label, **{
                field: getattr(label, field) + d
                for field, d in self.delta.items()})
        except ValueError:
            return None


class Chain(NamedTuple):
    """End of a walk: its label, its state and each step's squared
    coefficient, in the order taken."""
    label: object
    state: Expr
    steps: tuple


@dataclass(frozen=True, eq=False)
class Lattice:
    """A move table, the state at a walk's seed label, and `path(label)`:
    the seed label and the word of moves whose walk reaches `label`."""
    moves: dict
    seed_state: Callable
    path: Callable

    def chain(self, label) -> Chain:
        """The walk that builds the state at `label`."""
        return walk(self, *self.path(label))

    def scale(self, label) -> float:
        """Scale of the chain state against the coefficient-normalized
        family: the product of its steps' coefficients, in floats, in chain
        order."""
        return math.prod(map(math.sqrt, self.chain(label).steps), start=1.0)


@lru_cache(maxsize=None)
def walk(lattice: Lattice, seed, word: tuple) -> Chain:
    """The state reached from `seed` by the moves of `word`, applied left
    to right and each recanonicalized; every prefix is a memoized walk of
    its own, so walks share their common steps."""
    if not word:
        return Chain(seed, lattice.seed_state(seed), ())
    prev = walk(lattice, seed, word[:-1])
    move = lattice.moves[word[-1]]
    label = move.target(prev.label)
    if label is None:
        raise ValueError(f"invalid ladder move: {word[-1]} at {prev.label}")
    return Chain(label, apply_canonical(move.op(prev.label), prev.state),
                 prev.steps + (move.coeff_sq(prev.label),))


def check_moves(lattice: Lattice, labels, plan, tol) -> tuple:
    """Every move of the table on every label's chain state: the member
    reports, in label then table order, and the number of edge moves.

    An edge move's report is its residual against zero, scaled by the
    state.  An interior move's is |measured - c|/c on unit scale, no better
    than the dispersion of the ratio to the target's chain state; the chain
    states are the normalized ones times their scales, so the measured
    coefficient is that ratio rescaled by target over source scale, and the
    data keep it."""
    members, edges = [], 0
    for label in labels:
        state = lattice.chain(label).state
        for kind, move in lattice.moves.items():
            moved = move.op(label).apply(state)
            target, coeff_sq = move.target(label), move.coeff_sq(label)
            if target is not None and coeff_sq != 0:
                name = f"{kind} at {label}"
                rep = check_proportional(moved, lattice.chain(target).state,
                                         plan, tol=tol, name=name)
                measured = (rep.data["ratio"] * lattice.scale(target)
                            / lattice.scale(label))
                coeff = math.sqrt(coeff_sq)
                members.append(IdentityReport(
                    name, max(abs(measured - coeff) / coeff, rep.relative),
                    1.0, tol, data={"coefficient": measured}))
                continue
            if coeff_sq != 0:
                raise ValueError(f"zero target with nonzero coefficient: "
                                 f"{kind} at {label}")
            members.append(check_zero(moved, plan, reference=[state], tol=tol,
                                      name=f"{kind} edge {label}"))
            edges += 1
    return members, edges
