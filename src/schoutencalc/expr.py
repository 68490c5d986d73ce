"""Expression language for multivectors and brackets.

Grammar summary::

    expr     := term (('+' | '-') term)*
    term     := factor ('^' factor)*          wedge, left associative
    factor   := unary ('*' unary)*            scalar multiplication
    unary    := '-' unary | atom
    atom     := rational | variable | generator | '(' expr ')'
              | '[' expr ',' expr ']'         antisymmetric bracket
              | '{' expr (',' expr)* '}' ['_' int]   symmetric / n-bracket
              | 'd' '(' expr ')'              differential
              | 'i_<n>' '(' expr, ... ')'     injection component

Rationals are ``p`` or ``p/q``; variables ``x1..xm`` (polynomial pairs
only); generators ``d1..dm`` or ``e1..ed`` depending on the pair kind.  A
variable immediately wedged with an integer literal, as in ``x1^2``, parses
as a monomial power.

Each grammar rule returns the multivector it denotes, so an expression is
evaluated in the same left-to-right pass that parses it, and symbols
resolve against the pair where they occur, so errors carry source
positions.  An evaluation error (``d(d1)`` on a polynomial pair, say)
therefore surfaces before any syntax error further right.  Input nested
deeper than the interpreter's recursion limit allows is refused with a
:class:`ParseError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exterior import Multivector, wedge
from .linfty import ce_differential, n_bracket, natural_injection
from .pairs import GradedPairElement, LieRinehartPair
from .schouten import sn_antisym, sn_sym

__all__ = ["evaluate"]


_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[-+*/^(),\[\]{}])"
)


@dataclass
class _Token:
    kind: str  # "int" | "name" | punctuation literal | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        value = match.group(match.lastgroup)
        kind = value if match.lastgroup == "punct" else match.lastgroup
        tokens.append(_Token(kind, value, pos))
        pos = match.end()
    tokens.append(_Token("end", "", size))
    return tokens


_NAME_RE = re.compile(r"^([a-z])(\d+)$")
_INJ_RE = re.compile(r"^i_(\d+)$")


def _is_scalar(value: Multivector) -> bool:
    return all(len(mono) == 0 for mono in value.terms)


def _as_injection_argument(value: Multivector) -> GradedPairElement:
    for mono in value.terms:
        if len(mono) > 1:
            raise ValueError("injection arguments must have tensor degree at most 1")
    return GradedPairElement(value.scalar_part(), value.vector_part())


class _Parser:
    def __init__(self, text: str, pair: LieRinehartPair):
        self.tokens = _tokenize(text)
        self.pair = pair
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.pos, f"expected {kind!r}, found {token.text or 'end of input'!r}")
        return self.advance()

    def parse_arguments(self, close: str) -> list[Multivector]:
        args = [self.parse_expression()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.parse_expression())
        self.expect(close)
        return args

    # precedence: +,- < ^ < * < unary minus

    def parse_expression(self) -> Multivector:
        value = self.parse_wedge()
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "+":
                value = value + self.parse_wedge()
            else:
                value = value - self.parse_wedge()
        return value

    def parse_wedge(self) -> Multivector:
        value = self.parse_product()
        while self.peek().kind == "^":
            self.advance()
            value = wedge(self.pair, value, self.parse_product())
        return value

    def parse_product(self) -> Multivector:
        value = self.parse_unary()
        while self.peek().kind == "*":
            self.advance()
            right = self.parse_unary()
            if not (_is_scalar(value) or _is_scalar(right)):
                raise ValueError("'*' expects a scalar operand; use '^' for wedge products")
            value = wedge(self.pair, value, right)
        return value

    def parse_unary(self) -> Multivector:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_atom()

    def parse_atom(self) -> Multivector:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            value = Fraction(int(token.text))
            if self.peek().kind == "/":
                self.advance()
                denom = self.expect("int")
                if int(denom.text) == 0:
                    raise ParseError(denom.pos, "zero denominator")
                value /= int(denom.text)
            return Multivector.from_scalar(self.pair, self.pair.scalar_const(value))
        if token.kind == "(":
            self.advance()
            value = self.parse_expression()
            self.expect(")")
            return value
        if token.kind == "[":
            self.advance()
            left = self.parse_expression()
            self.expect(",")
            right = self.parse_expression()
            self.expect("]")
            return sn_antisym(self.pair, left, right)
        if token.kind == "{":
            return self.parse_braces()
        if token.kind == "name":
            return self.parse_name()
        raise ParseError(token.pos, f"unexpected {token.text or 'end of input'!r}")

    def parse_braces(self) -> Multivector:
        open_token = self.advance()
        args = self.parse_arguments("}")
        if self.peek().kind == "name" and self.peek().text.startswith("_"):
            suffix = self.advance()
            body = suffix.text[1:]
            if not body.isdigit():
                raise ParseError(suffix.pos, f"malformed arity suffix {suffix.text!r}")
            arity = int(body)
            if arity != len(args):
                raise ParseError(
                    open_token.pos,
                    f"arity suffix _{arity} does not match {len(args)} arguments",
                )
            return n_bracket(self.pair, args)
        if len(args) != 2:
            raise ParseError(
                open_token.pos,
                f"braces with {len(args)} arguments need an explicit arity suffix",
            )
        return sn_sym(self.pair, args[0], args[1])

    def parse_name(self) -> Multivector:
        token = self.advance()
        text = token.text
        if text == "d" and self.peek().kind == "(":
            self.advance()
            value = self.parse_expression()
            self.expect(")")
            return ce_differential(self.pair, value)
        injection = _INJ_RE.match(text)
        if injection:
            arity = int(injection.group(1))
            self.expect("(")
            args = self.parse_arguments(")")
            if arity != len(args):
                raise ParseError(
                    token.pos, f"injection i_{arity} applied to {len(args)} arguments"
                )
            return natural_injection(self.pair, [_as_injection_argument(arg) for arg in args])
        named = _NAME_RE.match(text)
        if named:
            prefix, index = named.group(1), int(named.group(2))
            if prefix == "x":
                if self.pair.nvars == 0:
                    raise ParseError(token.pos, "this pair has no polynomial variables")
                if not 1 <= index <= self.pair.nvars:
                    raise ParseError(token.pos, f"unknown variable {text!r}")
                exponent = 1
                if (
                    self.peek().kind == "^"
                    and self.tokens[self.index + 1].kind == "int"
                ):
                    self.advance()
                    exponent = int(self.advance().text)
                return Multivector.from_scalar(self.pair, self.pair.scalar_variable(index) ** exponent)
            expected = "d" if self.pair.kind == "cartan" else "e"
            if prefix == expected:
                if not 1 <= index <= self.pair.dim:
                    raise ParseError(token.pos, f"unknown generator {text!r}")
                return Multivector.monomial(self.pair, (index,))
        raise ParseError(token.pos, f"unknown symbol {text!r}")


def evaluate(text: str, pair: LieRinehartPair) -> Multivector:
    """The canonical multivector that ``text`` denotes on ``pair``."""
    parser = _Parser(text, pair)
    try:
        value = parser.parse_expression()
    except RecursionError:
        raise ParseError(parser.peek().pos, "expression nested too deeply") from None
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.pos, f"unexpected {tail.text!r}")
    return value
