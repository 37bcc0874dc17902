"""Surface syntax for elements: parse and format.

Grammar (whitespace insignificant, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := atom ('*' atom)*
    atom    := '-' atom | power
    power   := primary ('^' INT)?
    primary := INT ('/' INT)? | GEN | '(' expr ')'

GEN tokens are l<k> / r<k> with the index part of the token, so `l12` is the
twelfth l-generator and `l1*2` is a product.  `^` takes non-negative integer
exponents up to algebra.MAX_EXPONENT (10000) and binds tightest; a larger
exponent is a DomainError.  Rational literals are INT '/' INT; `/` has no
other role.  Parentheses and unary minus nest at most MAX_NESTING (100)
levels deep; deeper input is a syntax error.

Each parsed value is an int map over one denominator, ({(lexp, rword):
numerator}, den): `algebra._signed_products` multiplies factors, the terms
of a sum are added into one map by `algebra._add_into`, and outside of
`^`, which goes through `Element.__pow__`, only the answer is an Element.

`format_element` prints the canonical form, read off
`algebra.canonical_walk` one L-monomial group at a time: terms in
descending order, coefficients as p/q with positive denominators, l-parts
with exponents and r-parts as spelled-out letters, e.g.
`l1^2*r1 + 2*l1*r1*r1`.  Parsing a formatted string returns the identical
element.
"""

from __future__ import annotations

import re

from .algebra import DomainError, Element, _add_into, _ambient, _charge, _from_ints
from .algebra import _signed_products, _str_int, canonical_walk, generator


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ASCII only: a Unicode digit or space is an unexpected character
_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[lr]\d+)|(?P<int>\d+)|(?P<op>[-+*^()/]))", re.ASCII
)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip(_SPACE)
            if not stripped:
                break
            at = len(text) - len(stripped)
            if stripped[0] in "lr" and stripped[1:2].isdigit():
                # a non-ASCII digit after the generator letter broke the token
                at += 1
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tok, pos = m[kind], m.end()
        if kind == "gen":
            val = (tok[0], _str_int(tok[1:]))
        else:
            val = _str_int(tok) if kind == "int" else tok
        tokens.append((kind, val, pos - len(tok)))  # the matched group ends the match
    tokens.append(("end", None, len(text)))
    return tokens


# Deepest allowed nesting of '(' and unary '-'; keeps the recursive descent
# well inside the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, n: int):
        self.n = _ambient(n)  # a bad n is refused before the text is read
        self.tokens = _tokenize(text)
        self.i = self.depth = 0
        self.words: dict[tuple, tuple] = {}  # generator token -> its basis word
        self.one = ((0,) * self.n, ())

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nested(self, parse, pos: int) -> tuple[dict, int]:
        """parse() one level deeper, refusing past MAX_NESTING levels."""
        if self.depth >= MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def parse(self) -> Element:
        nums, den = self.expr()
        kind, _, pos = self.tokens[self.i]
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return _from_ints(self.n, nums, den)

    def expr(self) -> tuple[dict, int]:
        nums, den = self.term()
        while True:
            kind, val, _ = self.tokens[self.i]
            if kind != "op" or val not in "+-":
                return nums, den
            self.i += 1
            rhs, rden = self.term()
            nums, den = _add_into(nums, den, rhs.items(), rden, 1 if val == "+" else -1)
            _charge(len(nums))

    def term(self) -> tuple[dict, int]:
        nums, den = self.atom()
        while True:
            kind, val, _ = self.tokens[self.i]
            if kind == "op" and val == "*":
                self.i += 1
                rhs, rden = self.atom()
                nums, den = _signed_products(((1, nums.items(), rhs.items()),)), den * rden
            else:
                return nums, den

    def atom(self) -> tuple[dict, int]:
        kind, val, pos = self.tokens[self.i]
        if kind == "op" and val == "-":
            self.i += 1
            nums, den = self.nested(self.atom, pos)
            return {w: -c for w, c in nums.items()}, den
        return self.power()

    def power(self) -> tuple[dict, int]:
        base = self.primary()
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val == "^":
            self.i += 1
            ekind, exp, pos = self.take()
            if ekind != "int":
                raise ExprSyntaxError("exponent must be a non-negative integer", pos)
            den, items = (_from_ints(self.n, *base) ** exp).int_terms()
            return dict(items), den
        return base

    def primary(self) -> tuple[dict, int]:
        kind, val, pos = self.take()
        if kind == "int":
            den = 1
            nkind, nval, _ = self.tokens[self.i]
            if nkind == "op" and nval == "/":
                self.i += 1
                dkind, den, dpos = self.take()
                if dkind != "int":
                    raise ExprSyntaxError("expected integer denominator", dpos)
                if den == 0:
                    raise ExprSyntaxError("zero denominator", dpos)
            return ({self.one: val} if val else {}), den
        if kind == "gen":
            word = self.words.get(val)
            if word is None:
                try:
                    ((word, _),) = generator(self.n, *val).int_terms()[1]
                except DomainError as exc:
                    raise ExprSyntaxError(str(exc), pos) from exc
                self.words[val] = word
            return {word: 1}, 1
        if kind == "op" and val == "(":
            out = self.nested(self.expr, pos)
            kind, val, pos = self.take()
            if kind != "op" or val != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return out
        raise ExprSyntaxError("expected a literal, generator, or '('", pos)


def parse_element(text: str, n: int) -> Element:
    """Parse text into a canonical element of U_n; a bad n is a DomainError."""
    return _Parser(text, n).parse()


def format_element(g: Element) -> str:
    """Canonical text form; parse(format(g)) == g.  Each l-part of
    `canonical_walk` is spelled once, and each r-word once per call."""
    if g.is_zero:
        return "0"
    letters = [f"r{j}" for j in range(g.n + 1)]
    spelled: dict[tuple, str] = {}
    bodies: list[str] = []
    for lexp, rwords, texts in canonical_walk(g):
        factors = []  # a loop: a generator costs more than a short l-part
        for i, e in enumerate(lexp, 1):
            if e:
                factors.append(f"l{i}" if e == 1 else f"l{i}^{e}")
        lpart = "*".join(factors)
        lprefix = lpart + "*" if lpart else ""
        for rword, text in zip(rwords, texts):
            rpart = spelled.get(rword)
            if rpart is None:
                # most r-words put one letter before an r-word spelled already
                tail = spelled.get(rword[1:]) if rword else None
                rpart = spelled[rword] = (
                    f"{letters[rword[0]]}*{tail}"
                    if tail
                    else "*".join(map(letters.__getitem__, rword))
                )
            word = lprefix + rpart if rpart else lpart
            if not word:
                bodies.append(text)
            elif text == "1" or text == "-1":
                bodies.append(text[:-1] + word)  # the unit's sign alone
            else:
                bodies.append(f"{text}*{word}")
    # a term holds no space, so " + -" is exactly a negative term's separator
    return " + ".join(bodies).replace(" + -", " - ")
