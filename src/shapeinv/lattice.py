"""One ladder lattice for both sectors.

A `Lattice` is a sector's move table: each `Move` gives the operator at a
label, the label it leads to (None off the lattice) and its exact squared
coefficient, which vanishes exactly at an edge.  `walk` builds the chain
states on it, and `check_moves` is the one-step actions loop: an edge move
must annihilate, a nonzero coefficient on an off-lattice target is an
error, and the sector's rule judges every interior move.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

from .opalg import apply_canonical
from .symx import Expr
from .verify import check_zero


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


@dataclass(frozen=True, eq=False)
class Lattice:
    """A move table with the state at a walk's seed label, the name format
    of an edge report, and the rule `rule(kind, label, moved, target,
    coeff_sq, plan, tol)` for an interior move, `moved` being the move's
    operator applied to the state at `label`."""
    moves: dict
    seed_state: Callable
    edge_name: str
    rule: Callable


class Chain(NamedTuple):
    """End of a walk: its label, its state and each step's squared
    coefficient, in the order taken."""
    label: object
    state: Expr
    steps: tuple


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


def check_moves(lattice: Lattice, states, plan, tol) -> tuple:
    """Every move of the table on every (label, state) pair: the member
    reports, in state then table order, and the number of edge moves.  An
    edge move's report is its residual against zero, scaled by the state."""
    members, edges = [], 0
    for label, state in states:
        for kind, move in lattice.moves.items():
            moved = move.op(label).apply(state)
            target, coeff_sq = move.target(label), move.coeff_sq(label)
            if target is not None and coeff_sq != 0:
                members.append(lattice.rule(kind, label, moved, target,
                                            coeff_sq, plan, tol))
                continue
            if coeff_sq != 0:
                raise ValueError(f"zero target with nonzero coefficient: "
                                 f"{kind} at {label}")
            members.append(check_zero(
                moved, plan, reference=[state], tol=tol,
                name=lattice.edge_name.format(kind=kind, label=label)))
            edges += 1
    return members, edges
