"""Parsing of command-line class literals.

Grammar (whitespace ignored):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := NUMBER ['/' NUMBER] | NAME | '(' expr ')'

NUMBER is one or more ASCII digits 0-9, as in the support numbers of --h
and the catalog's parameters; any other digit is a bad character.  NAME is
a base-algebra basis name or a divisor variable x1, x2, ... (1-based).  Examples: "x1^2*x3 + (2/3)*t*x2", "x1+x2+x3".  A bare
juxtaposition like "(2/3)t" is accepted as multiplication.

An exponent, and the x-degree of every term of a product or power, may not
exceed the ring's top degree; without the second bound nested powers such as
"((x1+x2)^4)^4" grow without limit before any degree check could run.
Parentheses may nest at most MAX_NESTING levels deep, so the recursive
descent stays far below Python's recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .basealg import Element, el_add, el_scale
from .errors import DegreeMismatchError, MalformedInputError
from .exact import as_scalar, decimal_int
from .srbundle import BundleElement, BundleRing, bel_mul, lift, one, x_class

MAX_NESTING = 100

_TOKEN = r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))"


def _tokenize(text: str) -> list[tuple[str, str]]:
    token = re.compile(_TOKEN).match  # compiled on first use, then re's cache
    out = []
    pos = 0
    while pos < len(text):
        m = token(text, pos)
        if not m:
            if text[pos:].strip():
                raise MalformedInputError(f"bad character in literal: {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
    return out


class _Parser:
    def __init__(self, ring: BundleRing, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise MalformedInputError(f"expected {op!r} in literal")

    def parse(self) -> BundleElement:
        el = self.expr()
        if self.pos != len(self.tokens):
            raise MalformedInputError("trailing junk in literal")
        return el

    def expr(self) -> BundleElement:
        kind, val = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = el_scale(acc, -1)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                if val == "-":
                    nxt = el_scale(nxt, -1)
                acc = el_add(acc, nxt)
            else:
                return acc

    def mul(self, a: BundleElement, b: BundleElement) -> BundleElement:
        prod = bel_mul(self.ring, a, b)
        bound = self.ring.total_degree
        xdeg = max((sum(expo) for expo, _ in prod), default=0)
        if xdeg > bound:
            raise MalformedInputError(
                f"a product of x-degree {xdeg} exceeds the top degree {bound} of the ring")
        return prod

    def term(self) -> BundleElement:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = self.mul(acc, self.factor())
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # juxtaposition, e.g. "(2/3)t" or "2x1"
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self) -> BundleElement:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise MalformedInputError("exponent must be a number")
            power = decimal_int(val)
            bound = self.ring.total_degree
            if power > bound:
                raise MalformedInputError(
                    f"exponent {val} exceeds the top degree {bound} of the ring")
            acc = one(self.ring)
            for _ in range(power):
                acc = self.mul(acc, base)
            return acc
        return base

    def atom(self) -> BundleElement:
        kind, val = self.take()
        if kind == "num":
            value = Fraction(decimal_int(val))
            nk, nv = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                dk, dv = self.take()
                if dk != "num":
                    raise MalformedInputError("denominator must be a number")
                den = decimal_int(dv)
                if not den:
                    raise MalformedInputError(f"zero denominator in literal: {val}/{dv}")
                value /= den
            return el_scale(one(self.ring), value)
        if kind == "name":
            m = re.fullmatch(r"x([0-9]+)", val)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < self.ring.cp.s:
                    raise MalformedInputError(f"no divisor variable {val!r}")
                return x_class(self.ring, idx)
            return lift(self.ring, self.ring.base.element(val))
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise MalformedInputError(
                    f"parentheses nest deeper than {MAX_NESTING} levels in literal")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise MalformedInputError(f"unexpected token {val!r} in literal")


def parse_class(ring: BundleRing, text: str) -> BundleElement:
    """Parse a bundle-ring class literal."""
    tokens = _tokenize(text)
    if not tokens:
        raise MalformedInputError("empty class literal")
    return _Parser(ring, tokens).parse()


def parse_gamma(ring: BundleRing, text: str) -> Element:
    """Parse a base-algebra class literal (no divisor variables allowed)."""
    el = parse_class(ring, text)
    if any(any(expo) for expo, _ in el):
        raise DegreeMismatchError("base class literal contains divisor variables")
    return {idx: c for (_, idx), c in el.items()}


def parse_h(text: str, s: int) -> list[Fraction]:
    """Parse a comma-separated support vector like '1,1/2,-3'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise MalformedInputError(f"support vector needs {s} entries, got {len(parts)}")
    return [as_scalar(p) for p in parts]
