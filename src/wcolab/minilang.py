"""The function mini-language: a parser and a formatter for expression trees.

Functions are written in a small prefix language:

    const(re,im)            constant re + im*i
    poly(c0,c1,...)         polynomial, coefficients as literals re+imi
    mobius(a_re,a_im,th)    lam * (a - z) / (1 - conj(a) z), lam = e^{i th}
    add(e,e)  mul(e,e)      pointwise sum and product
    compose(e,e)            left argument composed with the right
    recip(e)  pow(e,alpha)  reciprocal and principal-branch power

format_expression renders a tree back into the language.
"""

from __future__ import annotations

import cmath
import math
import re

from .analytic_core import Add, AnalyticExpr, Compose, Const, Moebius, MoebiusMap, Mul, Poly, Pow, Recip
from .errors import ParseError

_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

# Deepest nesting of calls the parser accepts; a leaf call is depth 1.
# Deeper input is a ParseError, long before Python's recursion limit.
_MAX_DEPTH = 100


class _ExprParser:
    """Recursive-descent parser for the function mini-language."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            self.fail("expected a number")
        self.pos = m.end()
        return float(m.group())

    def complex_literal(self) -> complex:
        first = self.number()
        self.skip_ws()
        if self.peek() == "i":
            self.pos += 1
            return complex(0.0, first)
        if self.peek() in "+-":
            second = self.number()
            self.skip_ws()
            if self.peek() != "i":
                self.fail("expected 'i' after the imaginary part")
            self.pos += 1
            return complex(first, second)
        return complex(first, 0.0)

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a function name")
        return self.text[start : self.pos]

    def expression(self, depth: int = 1) -> AnalyticExpr:
        self.skip_ws()
        if depth > _MAX_DEPTH:
            self.fail(f"expression nested deeper than {_MAX_DEPTH} calls")
        start = self.pos
        name = self.name()
        self.expect("(")
        if name == "const":
            re_part = self.number()
            self.expect(",")
            im_part = self.number()
            self.expect(")")
            return Const(complex(re_part, im_part))
        if name == "poly":
            coeffs = [self.complex_literal()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                coeffs.append(self.complex_literal())
                self.skip_ws()
            self.expect(")")
            return Poly(tuple(coeffs))
        if name == "mobius":
            a_re = self.number()
            self.expect(",")
            a_im = self.number()
            self.expect(",")
            theta = self.number()
            self.expect(")")
            return Moebius(MoebiusMap(complex(a_re, a_im), cmath.exp(1j * theta)))
        if name in ("add", "mul", "compose"):
            left = self.expression(depth + 1)
            self.expect(",")
            right = self.expression(depth + 1)
            self.expect(")")
            node = {"add": Add, "mul": Mul, "compose": Compose}[name]
            return node(left, right)
        if name == "recip":
            inner = self.expression(depth + 1)
            self.expect(")")
            return Recip(inner)
        if name == "pow":
            inner = self.expression(depth + 1)
            self.expect(",")
            exponent = self.number()
            self.expect(")")
            return Pow(inner, exponent)
        self.pos = start
        self.fail(f"unknown function '{name}'")


def parse_expression(s: str) -> AnalyticExpr:
    """Parse a mini-language string into an expression tree.

    Raises ParseError with the failing position, also for calls nested
    more than _MAX_DEPTH deep; node constructors may additionally reject
    semantically invalid input (a mobius parameter outside the disk, a
    reciprocal of a vanishing function).
    """
    if s is None or not s.strip():
        raise ParseError("empty expression", 0)
    parser = _ExprParser(s)
    expr = parser.expression()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.fail("unexpected trailing input")
    return expr


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_literal(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return _fmt_real(c.real)
    if c.real == 0.0:
        return _fmt_real(c.imag) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i"


def format_expression(e: AnalyticExpr) -> str:
    """Render an expression tree back into the mini-language."""
    if isinstance(e, Const):
        v = complex(e.value)
        return f"const({_fmt_real(v.real)},{_fmt_real(v.imag)})"
    if isinstance(e, Poly):
        return "poly(" + ",".join(_fmt_literal(c) for c in e.coeffs) + ")"
    if isinstance(e, Moebius):
        a = complex(e.map.a)
        theta = math.atan2(e.map.lam.imag, e.map.lam.real)
        return f"mobius({_fmt_real(a.real)},{_fmt_real(a.imag)},{_fmt_real(theta)})"
    if isinstance(e, Add):
        return f"add({format_expression(e.left)},{format_expression(e.right)})"
    if isinstance(e, Mul):
        return f"mul({format_expression(e.left)},{format_expression(e.right)})"
    if isinstance(e, Compose):
        return f"compose({format_expression(e.outer)},{format_expression(e.inner)})"
    if isinstance(e, Recip):
        return f"recip({format_expression(e.inner)})"
    if isinstance(e, Pow):
        return f"pow({format_expression(e.inner)},{_fmt_real(e.exponent)})"
    raise ParseError(f"no mini-language form for {type(e).__name__}")
