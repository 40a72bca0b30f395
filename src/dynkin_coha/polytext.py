"""Minimal polynomial grammar for the command line.

Terms are built from integers, indexed variables w[i,j], u[i,j], a[i,j],
b[i,j], the operators + - * ^ and parentheses.  Multiplication must be
explicit.  Errors report the 1-based column of the offending token.
"""

from __future__ import annotations

import re

from .polyblock import MPoly, Var


class PolyParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>[wuab])\[\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*\]"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(
                f"unexpected character {stripped[0]!r}", pos + 1 + (len(text[pos:]) - len(stripped))
            )
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start() + 1))
        elif m.group("var"):
            tokens.append(
                ("var", Var(m.group("var"), int(m.group("i")), int(m.group("j"))), m.start() + 1)
            )
        else:
            tokens.append(("op", m.group("op"), m.start() + 1))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


def parse_poly(text: str, allowed_kinds: str = "wuab") -> MPoly:
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def expect_op(symbol: str):
        kind, value, col = advance()
        if kind != "op" or value != symbol:
            raise PolyParseError(f"expected {symbol!r}", col)

    def parse_expr() -> MPoly:
        node = parse_term()
        while True:
            kind, value, _ = peek()
            if kind == "op" and value in "+-":
                advance()
                rhs = parse_term()
                node = node + rhs if value == "+" else node - rhs
            else:
                return node

    def parse_term() -> MPoly:
        node = parse_factor()
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                advance()
                node = node * parse_factor()
            else:
                return node

    def parse_factor() -> MPoly:
        kind, value, col = peek()
        if kind == "op" and value == "-":
            advance()
            return -parse_factor()
        base = parse_atom()
        kind, value, _ = peek()
        if kind == "op" and value == "^":
            advance()
            ek, ev, ecol = advance()
            if ek != "int":
                raise PolyParseError("exponent must be a non-negative integer", ecol)
            return base ** ev
        return base

    def parse_atom() -> MPoly:
        kind, value, col = advance()
        if kind == "int":
            return MPoly.const(value)
        if kind == "var":
            if value.kind not in allowed_kinds:
                raise PolyParseError(
                    f"variable kind {value.kind!r} not allowed here", col
                )
            return MPoly.var(value)
        if kind == "op" and value == "(":
            node = parse_expr()
            expect_op(")")
            return node
        raise PolyParseError("expected an integer, a variable, or '('", col)

    node = parse_expr()
    kind, _, col = peek()
    if kind != "end":
        raise PolyParseError("trailing input", col)
    return node
