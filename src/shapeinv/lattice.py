"""One ladder lattice for both sectors.

A `Lattice` is a sector's move table: each `Move` gives the operator at a
label, the label it leads to (None off the lattice) and its exact squared
coefficient, which vanishes exactly at an edge.  A word is a tuple of move
names, applied left to right at their running labels; its coefficient is
the product of its letters', and it is an edge when that product vanishes.
The lattice also owns each label's chain: `path` names the seed and the
word that reach it, `walk` builds the state, and `scale` is the chain
state's size against the coefficient-normalized family.  `check_words` is
the one actions loop of both sectors, for one-step moves and for the pair
ladders alike: an edge word must annihilate at its first zero letter, a
nonzero coefficient on an off-lattice target is an error, and one rule
judges every other word.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .opalg import apply_canonical
from .symx import Expr, memo
from .verify import (IdentityReport, check_proportional, check_zero,
                     shared_columns)


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


@memo({})
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


def reach(moves: dict, label, word: tuple) -> tuple:
    """`(stop, target, coeff_sq)` for `word` read from `label` in the move
    table: the exact product of its letters' squared coefficients and the
    label it leads to, or 0 and None at an edge; `stop` counts the letters
    up to the first whose coefficient vanishes, all of them if none does."""
    coeff_sq = 1
    for stop, letter in enumerate(word, 1):
        move = moves[letter]
        step, target = move.coeff_sq(label), move.target(label)
        if step == 0:
            return stop, None, 0
        if target is None:
            raise ValueError(f"zero target with nonzero coefficient: "
                             f"{letter} at {label}")
        coeff_sq, label = coeff_sq * step, target
    return len(word), label, coeff_sq


def word_name(word: tuple, label, edge: bool) -> str:
    """A word's member name at `label`: its letters, then "edge" for an
    edge word or "at" for any other, then the label."""
    return f"{' '.join(word)} {'edge' if edge else 'at'} {label}"


@shared_columns()
def check_words(lattice: Lattice, labels, words, plan, tol, name) -> tuple:
    """Every word on every label's chain state: the member reports, in
    label then word order, and the number of edge words.  The letters before
    the last one applied (the first zero letter at an edge) are walked, and
    `name(word, label, edge)` names each member.

    An edge word's report is its residual against zero, scaled by the
    state.  Any other word's is |measured - c|/c on unit scale, c the square
    root of the word's coefficient, no better than the dispersion of the
    ratio to the target's chain state; the chain states are the normalized
    ones times their scales, so the measured coefficient is that ratio
    rescaled by target over source scale, and the data keep it."""
    members, edges = [], 0
    for label in labels:
        seed, path = lattice.path(label)
        for word in words:
            stop, target, coeff_sq = reach(lattice.moves, label, word)
            before = walk(lattice, seed, path + word[:stop - 1])
            moved = (lattice.moves[word[stop - 1]].op(before.label)
                     .apply(before.state))
            member = name(word, label, not coeff_sq)
            if coeff_sq:
                rep = check_proportional(moved, lattice.chain(target).state,
                                         plan, tol=tol, name=member)
                measured = (rep.data["ratio"] * lattice.scale(target)
                            / lattice.scale(label))
                coeff = math.sqrt(coeff_sq)
                members.append(IdentityReport(
                    member, max(abs(measured - coeff) / coeff, rep.relative),
                    1.0, tol, data={"coefficient": measured}))
                continue
            members.append(check_zero(
                moved, plan, reference=[lattice.chain(label).state], tol=tol,
                name=member))
            edges += 1
    return members, edges
