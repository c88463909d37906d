"""Tiny operator-expression language for ad-hoc identity checks.

Grammar (whitespace-insensitive)::

    expr  := term (('+' | '-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | atom
    atom  := INT | 'i' | NAME | NAME '(' ['-'] INT ')'
           | '(' expr ')' | '[' expr ',' expr ']'

NAME is one of the registered generators.  A bare name denotes the
full-coordinate realization (families keep their symbolic lattice label);
applying an integer, as in ``Lm(3)``, instantiates the lattice-reduced form
at that incoming label.  ``[X,Y]`` is the commutator ``X*Y - Y*X``.
Parentheses, brackets and unary minus nest at most ``MAX_DEPTH`` levels.
Scalars -- integers and the imaginary unit ``i`` -- multiply and add
freely and promote to multiples of the identity when combined with
operators.  A product or bracket of two operators whose coefficient-node
counts multiply past ``MAX_PRODUCT_SIZE`` is refused before it is composed.

The parser builds each rule's value -- a scalar or an operator -- as it
recognizes the rule, in one pass over the text, so an error while building
(a lattice clash, an oversized product) is reported before a syntax error
that comes later in the text.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from .rationals import GaussRat
from .symx import Const, children
from .opalg import DiffOp, OpError, commutator

GENERATOR_NAMES = (
    "Lp", "Lm", "L3", "Rp", "Rm", "R3",
    "A1", "A1d", "A2", "A2d", "a3", "a3d", "a4", "a4d",
    "Casimir", "Hq", "Hm",
)


class DslError(ValueError):
    """Parse or build failure; carries the source position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.message = message
        self.pos = pos
        super().__init__(
            message if pos is None else f"{message} (at position {pos})")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<sym>[-+*(),\[\]]))")


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise DslError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup is None:  # trailing whitespace
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# Each nesting level costs up to four parser frames ('(' and '[' go through
# atom -> expr -> term -> unary), so this bound keeps the parser, which
# builds the operator as it recurses, well inside the default recursion limit.
MAX_DEPTH = 100

_MINUS_ONE = GaussRat(Fraction(-1))
_IMAG_UNIT = GaussRat(0, Fraction(1))


class _Parser:
    """Recursive descent whose rules return their values: a GaussRat scalar
    or a DiffOp."""

    def __init__(self, text: str, omega):
        self.text = text
        self.omega = omega
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        # the value of the last sum of two or more summands, and the summands
        self.last_sum = (None, ())

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, sym: str):
        kind, val, pos = self.peek()
        if kind == "sym" and val == sym:
            return self.next()
        got = repr(val) if kind != "end" else "end of input"
        raise DslError(f"expected {sym!r}, found {got}", pos)

    def at_sym(self, *symbols) -> bool:
        kind, val, _ = self.peek()
        return kind == "sym" and val in symbols

    def source_from(self, start: int) -> str:
        """The text from `start` to the end of the last consumed token."""
        _, val, pos = self.toks[self.i - 1]
        return self.text[start:pos + len(val)]

    def nested(self, parse):
        """Consume an opening '(', '[' or unary '-' and run `parse` one
        nesting level deeper."""
        _, val, pos = self.next()
        if self.depth == MAX_DEPTH:
            raise DslError(f"expression nested deeper than {MAX_DEPTH} levels "
                           f"at {val!r}", pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise DslError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self):
        acc = self.term()
        items = [acc]
        while self.at_sym("+", "-"):
            _, sign, _ = self.next()
            t = self.term()
            if sign == "-":
                t = _mul(_MINUS_ONE, t)
            items.append(t)
            acc = _add(acc, t)
        if len(items) > 1:
            self.last_sum = (acc, items)
        return acc

    def term(self):
        start = self.peek()[2]
        acc = self.unary()
        while self.at_sym("*"):
            self.next()
            right = self.unary()
            _check_size(acc, right, self.source_from(start))
            acc = _mul(acc, right)
        return acc

    def unary(self):
        if self.at_sym("-"):
            return _mul(_MINUS_ONE, self.nested(self.unary))
        return self.atom()

    def integer(self) -> int:
        """Consume an INT token and return its value."""
        _, val, pos = self.next()
        try:
            return int(val)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise DslError(f"integer too long: {len(val)} digits, at most "
                           f"{sys.get_int_max_str_digits()}", pos) from None

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            return GaussRat(Fraction(self.integer()))
        if kind == "name":
            self.next()
            if val == "i":
                if self.at_sym("("):
                    raise DslError("the imaginary unit takes no argument", pos)
                return _IMAG_UNIT
            if val not in GENERATOR_NAMES:
                raise DslError(
                    f"unknown generator {val!r}; valid names: "
                    + ", ".join(GENERATOR_NAMES), pos)
            if not self.at_sym("("):
                return _resolve(val, None, self.omega)
            self.next()
            sign = 1
            if self.at_sym("-"):
                self.next()
                sign = -1
            akind, _, apos = self.peek()
            if akind != "int":
                raise DslError("expected an integer label", apos)
            label = sign * self.integer()
            self.expect(")")
            return _resolve(val, label, self.omega)
        if kind == "sym" and val == "(":
            return self.nested(self.group)
        if kind == "sym" and val == "[":
            return self.nested(self.bracket)
        got = repr(val) if kind != "end" else "end of input"
        raise DslError(f"expected an operand, found {got}", pos)

    def group(self):
        value = self.expr()
        self.expect(")")
        return value

    def bracket(self):
        start = self.toks[self.i - 1][2]
        left = self.expr()
        self.expect(",")
        right = self.expr()
        self.expect("]")
        _check_size(left, right, self.source_from(start))
        param = None
        for v in (left, right):
            if isinstance(v, DiffOp):
                param = v.param or param
        return commutator(_promote(left, param),
                          _promote(right, param)).normalized()


# ---------------------------------------------------------------------------
# Operator construction
# ---------------------------------------------------------------------------

def _resolve(name: str, arg: int | None, omega):
    from . import osc3d, su2
    if name in ("Lp", "Lm", "L3", "Rp", "Rm", "R3"):
        if arg is None:
            return getattr(su2.build_raw_generators(), name)
        return su2.reduced_ladder_reference(name).at_incoming(arg)
    if name == "Casimir":
        if arg is None:
            return su2.casimir(su2.build_raw_generators())
        return su2.casimir_reduced_reference().at_incoming(arg)
    if name == "Hq":
        op = su2.hq_reference()
        return op if arg is None else op.at_incoming(arg)
    if name == "Hm":
        op = osc3d.build_Hm(omega)
        return op if arg is None else op.at_incoming(arg)
    # one of the eight oscillators: the parser admits no other name
    if arg is None:
        return getattr(osc3d.build_combos(omega), name)
    return getattr(osc3d.build_oscillators(omega), name).at_incoming(arg)


def _promote(value, param) -> DiffOp:
    """Scalar -> scalar multiple of the identity on the given lattice."""
    if isinstance(value, DiffOp):
        return value
    return DiffOp.from_expr(Const(value), param)


# Composing two operators pairs every coefficient of one with every
# coefficient (and derivative) of the other, so its cost follows the product
# of their coefficient-node counts.  The documented examples stay below
# 20 000; Lp*Lp*Lp*Lp*Lp reaches 193 806 and takes seconds, and each
# further factor roughly triples the time.
MAX_PRODUCT_SIZE = 100_000


def _coefficient_nodes(op: DiffOp) -> int:
    """Distinct nodes in the operator's coefficient trees."""
    seen, todo = set(), [t.coeff for t in op.terms]
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            todo.extend(children(e))
    return len(seen)


def _check_size(a, b, source: str):
    """Refuse to compose the values a and b of the product or bracket
    `source` when both are operators whose coefficient-node counts multiply
    past MAX_PRODUCT_SIZE."""
    if isinstance(a, DiffOp) and isinstance(b, DiffOp):
        na, nb = _coefficient_nodes(a), _coefficient_nodes(b)
        if na * nb > MAX_PRODUCT_SIZE:
            raise DslError(
                f"operator product {source} too large to compose: "
                f"{na} x {nb} = {na * nb} coefficient-node pairs "
                f"(bound {MAX_PRODUCT_SIZE})")


def _mul(a, b):
    """Product of two values.  Operator products are normalized, because
    composition does not merge like terms and repeated products would
    otherwise grow geometrically."""
    if not isinstance(b, DiffOp):
        if not isinstance(a, DiffOp):
            return a * b
        a, b = b, a  # a scalar factor commutes; compose it from the left
    return (_promote(a, b.param) @ b).normalized()


def _add(a, b):
    if isinstance(a, DiffOp):
        return a + _promote(b, a.param)
    if isinstance(b, DiffOp):
        return _promote(a, b.param) + b
    return a + b


def parse_and_build(text: str, omega) -> tuple:
    """The operator of an expression (a scalar promotes to a multiple of the
    identity), and the summands of the sum of two or more terms that
    produced it, parenthesized or not; () when its last operation is not
    such a sum.  Syntax errors, lattice clashes and oversized products
    raise DslError."""
    parser = _Parser(text, omega)
    try:
        value = parser.parse()
    except OpError as exc:
        raise DslError(f"cannot build operator: {exc}") from exc
    param = value.param if isinstance(value, DiffOp) else None
    # parentheses and one-item rules pass a sum's value on unchanged
    last, items = parser.last_sum
    if last is not value:
        items = ()
    return (_promote(value, param),
            tuple(_promote(v, param) for v in items))
