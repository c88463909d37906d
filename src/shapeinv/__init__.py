"""Symbolic-numeric verification toolkit for shape-invariant differential
operators on a 3-sphere and for a four-dimensional isotropic oscillator
reduced to three radial/angular coordinates.

Layers, bottom to top:

* rationals  - exact Gaussian-rational scalars
* symx       - symbolic expression trees with a canonical normal form
* opalg      - partial differential operators with parameter shifts
* verify     - randomized high-precision identity checking primitives
* su2        - two commuting angular-momentum realizations and the derived
               two-dimensional Hamiltonian family
* lattice    - the ladder lattice both sectors share: a move table, the
               chain walker and the one actions loop over words of moves
* ladders2d  - parameter-shift ladder states and coefficient identities
* osc3d      - oscillator creation/annihilation factorization in 3-D form
* suite      - the full battery of positive checks and fault injections
* cli        - command-line front end with a small operator-expression DSL
"""
from .rationals import GaussRat
from .symx import (
    COORDINATES,
    Add,
    Const,
    Cos,
    DiffError,
    EvalError,
    Exp,
    Expr,
    Fn,
    MEMOS,
    Mul,
    Pow,
    Sin,
    Sym,
    canonical,
    diff,
    free_symbols,
    render,
    simplify_basic,
    substitute,
)

__all__ = [
    "GaussRat",
    "COORDINATES",
    "Expr", "Const", "Sym", "Add", "Mul", "Pow", "Fn", "Sin", "Cos", "Exp",
    "DiffError", "EvalError",
    "diff", "substitute", "simplify_basic", "canonical",
    "free_symbols", "render", "clear_caches",
]

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every process-wide cache: each is a `symx.memo` table, and
    `symx.MEMOS` lists them all.  They are the tree kernels' node memos and
    the canonical trees, the chain walker, and the pure builders: the su2
    generator sets and closed forms, the ladders2d one-step operators, the
    osc3d operator sets and the CLI parser."""
    for table in MEMOS:
        table.clear()
