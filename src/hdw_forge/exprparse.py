"""Recursive-descent parser for the expression text grammar.

Grammar (EBNF, documented in docs/expression-grammar.md):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = { "+" | "-" } power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] integer | "(" [ "-" ] integer "/" integer ")" ;
    atom     = number | name | func "(" expr ")" | "(" expr ")" ;
    func     = "sin" | "cos" | "exp" | "log" ;

Numbers are parsed as exact rationals (decimals included); names must be
coordinate names of the active chart, or extra symbols explicitly allowed by
the caller (solver init expressions, submanifold parameters).  Whitespace is
insignificant.  Errors carry line and column; a division, power or function
whose value is not finite (a division by zero, log(0)) is an error at that
operator or function.
"""

from __future__ import annotations

import difflib
import re

import sympy as sp

from .coords import BundleChart
from .errors import ExpressionSyntaxError, UnknownCoordinateError

_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log}
_NOT_FINITE = (sp.zoo, sp.nan, sp.oo, -sp.oo)

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _finite(e, what, line, col):
    """`e`, the value of `what` at (line, col), when it holds no value that
    is not finite.  Sums and products of finite values are finite, so the
    parser checks only divisions, powers and functions."""
    if e.has(*_NOT_FINITE):
        raise ExpressionSyntaxError(f"{what} gives a value that is not finite", line, col)
    return e


def _tokenize(text: str, line: int = 1, col: int = 1):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        val = m.group()
        if kind == "ws":
            for ch in val:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            continue
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {val!r}", line, col)
        tokens.append((kind, val, line, col))
        col += len(val)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, allowed_names, suggestions_from):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_names
        self.vocabulary = sorted(set(suggestions_from))

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, line, col = self.take()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(
                f"expected {op!r}, found {val or 'end of input'!r}", line, col)

    def parse(self):
        e = self.expr()
        kind, val, line, col = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input starting at {val!r}", line, col)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, line, col = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                e = e * rhs if val == "*" else _finite(e / rhs, "'/'", line, col)
            else:
                return e

    def unary(self):
        sign = 1
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        return sign * self.power()

    def power(self):
        base = self.atom()
        kind, val, line, col = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return _finite(base ** self.exponent(), "'^'", line, col)
        return base

    def exponent(self):
        kind, val, line, col = self.peek()
        if kind == "op" and val == "(":
            self.take()
            num = self._signed_integer()
            kind, val, line, col = self.peek()
            if kind == "op" and val == "/":
                self.take()
                kind, dval, dline, dcol = self.take()
                if kind != "num" or "." in dval:
                    raise ExpressionSyntaxError(
                        "expected an integer denominator", dline, dcol)
                self.expect_op(")")
                return _finite(sp.Rational(num, int(dval)), "'/'", line, col)
            self.expect_op(")")
            return sp.Integer(num)
        return sp.Integer(self._signed_integer())

    def _signed_integer(self):
        sign = 1
        kind, val, line, col = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
            kind, val, line, col = self.peek()
        if kind != "num" or "." in val:
            raise ExpressionSyntaxError(
                f"expected an integer exponent, found {val or 'end of input'!r}",
                line, col)
        self.take()
        return sign * int(val)

    def atom(self):
        kind, val, line, col = self.take()
        if kind == "num":
            return sp.Rational(val) if "." in val else sp.Integer(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _finite(_FUNCS[val](arg), val, line, col)
            if val not in self.allowed:
                suggestions = difflib.get_close_matches(val, self.vocabulary, n=3)
                hint = f" (did you mean: {', '.join(suggestions)}?)" if suggestions else ""
                raise UnknownCoordinateError(
                    f"unknown coordinate {val!r}{hint}", line, col, suggestions)
            return sp.Symbol(val)
        raise ExpressionSyntaxError(
            f"expected a value, found {val or 'end of input'!r}", line, col)


def parse_expression(text: str, chart: BundleChart | None = None,
                     level: str = "M", extra_names=(), line: int = 1):
    """Parse expression text against a chart level's coordinate names."""
    allowed = set(extra_names)
    vocab = set(extra_names) | set(_FUNCS)
    if chart is not None:
        allowed |= set(chart.coord_names(level))
        vocab |= set(chart.coord_names(level))
    tokens = _tokenize(text, line=line)
    return _Parser(tokens, allowed, vocab).parse()


class _PlainPrinter(sp.printing.str.StrPrinter):
    """Never abbreviate powers (no sqrt), so output re-parses."""

    def _print_Pow(self, expr, rational=False):
        return super()._print_Pow(expr, rational=True)


def render_plain(e) -> str:
    """Plain-text rendering that round-trips through `parse_expression`."""
    e = sp.sympify(e)
    s = _PlainPrinter().doprint(e)
    return s.replace("**", "^")


_SUPER_RE = re.compile(r"^p(\d+)_(\d+)$")


def render_latex(e) -> str:
    """LaTeX fragment using the p^nu_A / y^A index conventions."""
    e = sp.sympify(e)
    repl = {}
    for s in e.free_symbols:
        m = _SUPER_RE.match(s.name)
        if m:
            repl[s] = sp.Symbol(f"p^{{{m.group(2)}}}_{{{m.group(1)}}}")
        elif s.name == "pe":
            repl[s] = sp.Symbol("p")
        elif s.name[0] in "xyv" and s.name[1:].isdigit():
            repl[s] = sp.Symbol(f"{s.name[0]}^{{{s.name[1:]}}}")
    return sp.latex(e.subs(repl, simultaneous=True))
