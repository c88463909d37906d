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

The AST is a tree of frozen dataclasses; ``parse(render(ast))`` returns an
equal tree, so rendered forms are stable fixed points.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
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
# AST
# ---------------------------------------------------------------------------

class OpDslAst:
    """Base of every expression node; renders back to parseable source."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Gen(OpDslAst):
    name: str
    arg: int | None = None

    def render(self) -> str:
        return self.name if self.arg is None else f"{self.name}({self.arg})"


@dataclass(frozen=True)
class IntLit(OpDslAst):
    value: int

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ImagLit(OpDslAst):
    def render(self) -> str:
        return "i"


@dataclass(frozen=True)
class Neg(OpDslAst):
    item: object

    def render(self) -> str:
        inner = self.item.render()
        if isinstance(self.item, Sum):
            inner = f"({inner})"
        return f"-{inner}"


@dataclass(frozen=True)
class Sum(OpDslAst):
    items: tuple

    def render(self) -> str:
        bits = [self.items[0].render()]
        for it in self.items[1:]:
            if isinstance(it, Neg) and not isinstance(it.item, Sum):
                bits.append(f" - {it.item.render()}")
            else:
                bits.append(f" + {it.render()}")
        return "".join(bits)


@dataclass(frozen=True)
class Prod(OpDslAst):
    items: tuple

    def render(self) -> str:
        bits = []
        for it in self.items:
            s = it.render()
            if isinstance(it, Sum):
                s = f"({s})"
            bits.append(s)
        return "*".join(bits)


@dataclass(frozen=True)
class Bracket(OpDslAst):
    left: object
    right: object

    def render(self) -> str:
        return f"[{self.left.render()}, {self.right.render()}]"


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
# atom -> expr -> term -> unary), so this bound keeps the parser and the
# recursive evaluation of the AST well inside the default recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

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

    def nested(self, parse):
        """Consume an opening '(', '[' or unary '-' and run `parse` one
        nesting level deeper."""
        _, val, pos = self.next()
        if self.depth == MAX_DEPTH:
            raise DslError(f"expression nested deeper than {MAX_DEPTH} levels "
                           f"at {val!r}", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise DslError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        items = [self.term()]
        while self.at_sym("+", "-"):
            _, sign, _ = self.next()
            t = self.term()
            items.append(Neg(t) if sign == "-" else t)
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def term(self):
        items = [self.unary()]
        while self.at_sym("*"):
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else Prod(tuple(items))

    def unary(self):
        if self.at_sym("-"):
            return Neg(self.nested(self.unary))
        return self.atom()

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            return IntLit(int(val))
        if kind == "name":
            self.next()
            if val == "i":
                if self.at_sym("("):
                    raise DslError("the imaginary unit takes no argument", pos)
                return ImagLit()
            if val not in GENERATOR_NAMES:
                raise DslError(
                    f"unknown generator {val!r}; valid names: "
                    + ", ".join(GENERATOR_NAMES), pos)
            if self.at_sym("("):
                self.next()
                sign = 1
                if self.at_sym("-"):
                    self.next()
                    sign = -1
                akind, aval, apos = self.peek()
                if akind != "int":
                    raise DslError("expected an integer label", apos)
                self.next()
                self.expect(")")
                return Gen(val, sign * int(aval))
            return Gen(val)
        if kind == "sym" and val == "(":
            return self.nested(self.group)
        if kind == "sym" and val == "[":
            return self.nested(self.bracket)
        got = repr(val) if kind != "end" else "end of input"
        raise DslError(f"expected an operand, found {got}", pos)

    def group(self):
        node = self.expr()
        self.expect(")")
        return node

    def bracket(self):
        left = self.expr()
        self.expect(",")
        right = self.expr()
        self.expect("]")
        return Bracket(left, right)


def parse_op_expr(text: str) -> OpDslAst:
    """Parse to an AST; raises DslError with a source position on failure."""
    return _Parser(text).parse()


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
    if name in ("A1", "A1d", "A2", "A2d"):
        if arg is None:
            return getattr(osc3d.build_combos(omega), name)
        return getattr(osc3d.build_oscillators(omega), name).at_incoming(arg)
    if name in ("a3", "a3d", "a4", "a4d"):
        if arg is None:
            return getattr(osc3d.cartesian_ladders(omega), name)
        return getattr(osc3d.build_oscillators(omega), name).at_incoming(arg)
    raise DslError(f"unknown generator {name!r}")


def _promote(value, param):
    """Scalar -> scalar multiple of the identity on the given lattice."""
    kind, payload = value
    if kind == "op":
        return payload
    return DiffOp.from_expr(Const(payload), param)


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


def _check_size(a, b, node: OpDslAst):
    """Refuse to compose the operator values a and b of `node` when their
    coefficient-node counts multiply past MAX_PRODUCT_SIZE."""
    if a[0] == "op" and b[0] == "op":
        na, nb = _coefficient_nodes(a[1]), _coefficient_nodes(b[1])
        if na * nb > MAX_PRODUCT_SIZE:
            raise DslError(
                f"operator product {node.render()} too large to compose: "
                f"{na} x {nb} = {na * nb} coefficient-node pairs "
                f"(bound {MAX_PRODUCT_SIZE})")


def _mul(a, b):
    """Product of two values.  Operator products are normalized, because
    composition does not merge like terms and repeated products would
    otherwise grow geometrically."""
    if a[0] == "sc" and b[0] == "sc":
        return ("sc", a[1] * b[1])
    if a[0] == "sc":
        prod = DiffOp.from_expr(Const(a[1]), b[1].param) @ b[1]
    elif b[0] == "sc":
        prod = DiffOp.from_expr(Const(b[1]), a[1].param) @ a[1]
    else:
        prod = a[1] @ b[1]
    return ("op", prod.normalized())


def _add(a, b):
    if a[0] == "sc" and b[0] == "sc":
        return ("sc", a[1] + b[1])
    if a[0] == "sc":
        return ("op", _promote(a, b[1].param) + b[1])
    if b[0] == "sc":
        return ("op", a[1] + _promote(b, a[1].param))
    return ("op", a[1] + b[1])


def _eval(node, omega):
    if isinstance(node, IntLit):
        return ("sc", GaussRat(Fraction(node.value)))
    if isinstance(node, ImagLit):
        return ("sc", GaussRat(0, Fraction(1)))
    if isinstance(node, Gen):
        return ("op", _resolve(node.name, node.arg, omega))
    if isinstance(node, Neg):
        return _mul(("sc", GaussRat(Fraction(-1))), _eval(node.item, omega))
    if isinstance(node, Sum):
        acc = _eval(node.items[0], omega)
        for it in node.items[1:]:
            acc = _add(acc, _eval(it, omega))
        return acc
    if isinstance(node, Prod):
        acc = _eval(node.items[0], omega)
        for k in range(1, len(node.items)):
            right = _eval(node.items[k], omega)
            _check_size(acc, right, Prod(node.items[:k + 1]))
            acc = _mul(acc, right)
        return acc
    if isinstance(node, Bracket):
        left = _eval(node.left, omega)
        right = _eval(node.right, omega)
        _check_size(left, right, node)
        param = None
        for v in (left, right):
            if v[0] == "op":
                param = v[1].param or param
        return ("op", commutator(_promote(left, param),
                                 _promote(right, param)).normalized())
    raise DslError(f"unsupported node {node!r}")


def build_operator(ast: OpDslAst, omega=Fraction(1)) -> DiffOp:
    """Evaluate an AST to a differential operator (scalars promote to
    multiples of the identity).  Lattice clashes raise DslError."""
    try:
        value = _eval(ast, omega)
    except OpError as exc:
        raise DslError(f"cannot build operator: {exc}") from exc
    return _promote(value, value[1].param if value[0] == "op" else None)


def parse_and_build(text: str, omega=Fraction(1)) -> DiffOp:
    return build_operator(parse_op_expr(text), omega)
