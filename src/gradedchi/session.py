"""The session language: one ring declaration, named ideals, commands.

Grammar (informally):

    session    := ring-decl (ideal-decl | command)*
    ring-decl  := "ring" NAME "{" "vars" var ("," var)* ";"
                  ("relations" poly ("," poly)* ";")? "}"
    var        := NAME (":" INT)?            -- weight defaults to 1
    ideal-decl := "ideal" NAME "=" "(" poly ("," poly)* ")" ";"
    command    := "hilbert" NAME ";"
                | "chi" NAME NAME ";"
                | "tor" NAME NAME flag* ";"
                | "check" NAME NAME flag* ";"
                | "gulliksen" NAME NAME ";"
                | "cartier" poly INT NAME ";"
    flag       := "--imax" INT | "--dmax" INT

Polynomials use integer (or INT/INT fraction) coefficients, "+", "-", "*",
"^" and parentheses. "#" starts a comment through end of line. Everything
referenced must be declared earlier; errors carry line and column. A sum's
terms are added into one dict, made into one Poly. A Command is a NamedTuple
(a tuple); a Session is a mutable __slots__ class.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import NamedTuple

from .arith import IntPoly, RatFun, ratfun_normalize
from .errors import SessionError
from .rings import QQ, GradedRing, Poly, PolyRing

_SYMBOLS = set("{}(),;:=+-*^/")
_COMMANDS = ("hilbert", "chi", "tor", "check", "gulliksen", "cartier")


class Token(NamedTuple):
    kind: str  # IDENT, INT, FLAG, SYM, EOF
    value: str
    line: int
    col: int


def tokenize(text: str):
    toks = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            j = i + 2
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            name = text[i + 2 : j]
            if not name:
                raise SessionError("stray '--'", line, col)
            toks.append(Token("FLAG", name, line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(Token("SYM", ch, line, col))
            col += 1
            i += 1
            continue
        raise SessionError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _CommandFields(NamedTuple):
    kind: str
    idents: tuple
    poly: Poly | None = None
    number: int | None = None
    flags: dict | None = None
    line: int = 0
    col: int = 0


class Command(_CommandFields):
    """One parsed command. flags defaults to a new empty dict per command."""

    __slots__ = ()

    def __new__(cls, kind, idents, poly=None, number=None, flags=None, line=0, col=0):
        flags = {} if flags is None else flags
        return super().__new__(cls, kind, idents, poly, number, flags, line, col)


class Session:
    __slots__ = ("ring_name", "ring", "ideals", "commands")

    def __init__(self, ring_name: str, ring: GradedRing, ideals: dict, commands: list):
        self.ring_name = ring_name
        self.ring = ring
        self.ideals = ideals
        self.commands = commands

    @property
    def ambient(self) -> PolyRing:
        return self.ring.ambient


class _Parser:
    def __init__(self, tokens, field):
        self.toks = tokens
        self.pos = 0
        self.field = field
        self.ring = None
        self.ring_name = None
        self.ambient = None
        self.var_index: dict = {}
        self.ideals: dict = {}
        self.commands: list = []

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    @staticmethod
    def _show(t: Token) -> str:
        if t.kind == "EOF":
            return "end of input"
        if t.kind == "FLAG":
            return f"'--{t.value}'"
        return f"'{t.value}'"

    def expect_sym(self, s: str) -> Token:
        t = self.advance()
        if t.kind != "SYM" or t.value != s:
            raise SessionError(f"expected '{s}', found {self._show(t)}", t.line, t.col)
        return t

    def expect_ident(self, what: str = "a name") -> Token:
        t = self.advance()
        if t.kind != "IDENT":
            raise SessionError(f"expected {what}, found {self._show(t)}", t.line, t.col)
        return t

    def expect_int(self, what: str = "an integer") -> int:
        t = self.advance()
        if t.kind != "INT":
            raise SessionError(f"expected {what}, found {self._show(t)}", t.line, t.col)
        return int(t.value)

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.value == s

    def expect_end(self, what: str):
        t = self.peek()
        if t.kind != "EOF":
            raise SessionError(f"trailing input after {what}: {self._show(t)}", t.line, t.col)

    # -- declarations

    def parse(self) -> Session:
        t = self.peek()
        if not (t.kind == "IDENT" and t.value == "ring"):
            raise SessionError("a session must start with a ring declaration", t.line, t.col)
        self.parse_ring()
        while True:
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind != "IDENT":
                raise SessionError(
                    f"expected a declaration or command, found {self._show(t)}", t.line, t.col
                )
            if t.value == "ring":
                raise SessionError("only one ring declaration is allowed per session", t.line, t.col)
            if t.value == "ideal":
                self.parse_ideal()
            elif t.value in _COMMANDS:
                self.parse_command()
            else:
                raise SessionError(f"unknown command {t.value!r}", t.line, t.col)
        return Session(self.ring_name, self.ring, self.ideals, self.commands)

    def parse_ring(self):
        self.advance()  # "ring"
        self.ring_name = self.expect_ident("a ring name").value
        self.expect_sym("{")
        kw = self.expect_ident()
        if kw.value != "vars":
            raise SessionError(f"expected 'vars', found {self._show(kw)}", kw.line, kw.col)
        names: list = []
        weights: list = []
        while True:
            t = self.expect_ident("a variable name")
            if t.value in names:
                raise SessionError(f"duplicate variable {t.value!r}", t.line, t.col)
            w = 1
            if self.at_sym(":"):
                self.advance()
                wt = self.peek()
                w = self.expect_int("a weight")
                if w <= 0:
                    raise SessionError(
                        f"variable {t.value!r} has weight {w}; weights must be >= 1",
                        wt.line,
                        wt.col,
                    )
            names.append(t.value)
            weights.append(w)
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym(";")
        self.ambient = PolyRing(tuple(names), tuple(weights), field=self.field)
        self.var_index = {nm: i for i, nm in enumerate(names)}
        relations = []
        t = self.peek()
        if t.kind == "IDENT" and t.value == "relations":
            self.advance()
            relations = self.parse_forms(
                "relation", "has degree 0; the degree-0 part must be the field"
            )
            self.expect_sym(";")
        self.expect_sym("}")
        self.ring = GradedRing(self.ambient, relations)

    def parse_ideal(self):
        self.advance()  # "ideal"
        name_tok = self.expect_ident("an ideal name")
        name = name_tok.value
        if name in self.ideals:
            raise SessionError(f"ideal {name!r} is already declared", name_tok.line, name_tok.col)
        self.expect_sym("=")
        self.expect_sym("(")
        gens = self.parse_forms("generator", "is a nonzero constant")
        self.expect_sym(")")
        self.expect_sym(";")
        self.ideals[name] = tuple(gens)

    def parse_forms(self, what: str, constant_msg: str) -> list:
        """Comma-separated polynomials, zeros dropped. A form that is not
        homogeneous raises "{what} {p} is not homogeneous"; one of degree 0
        raises "{what} {p} {constant_msg}"."""
        forms = []
        while True:
            start = self.peek()
            p = self.parse_poly()
            if not p.is_zero:
                d = p.homogeneous_degree()
                if d is None:
                    raise SessionError(f"{what} {p} is not homogeneous", start.line, start.col)
                if d == 0:
                    raise SessionError(f"{what} {p} {constant_msg}", start.line, start.col)
                forms.append(p)
            if not self.at_sym(","):
                return forms
            self.advance()

    # -- commands

    def ideal_ref(self) -> str:
        t = self.expect_ident("an ideal name")
        if t.value not in self.ideals:
            raise SessionError(f"unknown ideal {t.value!r}", t.line, t.col)
        return t.value

    def parse_flags(self) -> dict:
        flags: dict = {}
        while self.peek().kind == "FLAG":
            t = self.advance()
            if t.value not in ("imax", "dmax"):
                raise SessionError(f"unknown flag --{t.value}", t.line, t.col)
            flags[t.value] = self.expect_int(f"a value for --{t.value}")
        return flags

    def parse_command(self):
        t = self.advance()
        kind = t.value
        poly = None
        number = None
        flags: dict = {}
        if kind == "hilbert":
            idents = (self.ideal_ref(),)
        elif kind in ("chi", "gulliksen"):
            idents = (self.ideal_ref(), self.ideal_ref())
        elif kind in ("tor", "check"):
            idents = (self.ideal_ref(), self.ideal_ref())
            flags = self.parse_flags()
        elif kind == "cartier":
            poly = self.parse_poly()
            et = self.peek()
            number = self.expect_int("the integer multiple e")
            if number < 1:
                raise SessionError(
                    f"the multiple e is {number}; it must be >= 1", et.line, et.col
                )
            idents = (self.ideal_ref(),)
        else:  # unreachable: filtered by the caller
            raise SessionError(f"unknown command {kind!r}", t.line, t.col)
        self.expect_sym(";")
        self.commands.append(
            Command(
                kind=kind,
                idents=idents,
                poly=poly,
                number=number,
                flags=flags,
                line=t.line,
                col=t.col,
            )
        )

    # -- polynomial expressions

    def parse_poly(self) -> Poly:
        return self.parse_sum()

    def parse_sum(self) -> Poly:
        """Terms joined by '+' and '-', added into one {exponents: coefficient}
        dict and made into a Poly once: its constructor normalises the sum."""
        out: dict = {}
        sign = 1
        while True:
            self._add_term(out, sign)
            t = self.peek()
            if not (t.kind == "SYM" and t.value in "+-"):
                return Poly(self.ambient, out)
            self.advance()
            sign = 1 if t.value == "+" else -1

    def _add_term(self, out: dict, sign: int):
        """Add sign times a product of factors into out. Numbers and variable
        powers multiply into one coefficient and one exponent tuple; factors
        with parentheses multiply in as Polys, and the product's terms add."""
        coeff, exps, poly = sign, (0,) * self.ambient.nvars, None
        while True:
            f = self._factor()
            if isinstance(f, Poly):
                poly = f if poly is None else poly * f
            else:
                coeff *= f[0]
                exps = tuple(map(add, exps, f[1]))
            if not self.at_sym("*"):
                break
            self.advance()
        terms = {exps: self.ambient.field.coerce(coeff)}
        if poly is not None:
            terms = (Poly(self.ambient, terms) * poly).terms
        for m, c in terms.items():
            out[m] = out[m] + c if m in out else c

    def parse_factor(self) -> Poly:
        f = self._factor()
        return f if isinstance(f, Poly) else self.ambient.monomial(f[1], f[0])

    def _factor(self):
        """A signed atom with its powers: a (coefficient, exponents) pair
        for a number or a variable, a Poly for a parenthesised sum. The
        coefficient is an int or a Fraction, reduced mod p over GF(p), where
        its powers are taken mod p too."""
        if self.at_sym("-"):
            self.advance()
            f = self._factor()
            return -f if isinstance(f, Poly) else (-f[0], f[1])
        base = self._atom()
        while self.at_sym("^"):
            self.advance()
            e = self.expect_int("an exponent")
            if isinstance(base, Poly):
                base = base**e
            else:
                p = self.ambient.field.p
                c = pow(base[0], e, p) if p else base[0] ** e
                base = (c, tuple(a * e for a in base[1]))
        return base

    def _atom(self):
        t = self.advance()
        if t.kind == "INT":
            v = int(t.value)
            field = self.ambient.field
            if self.at_sym("/") and self.toks[self.pos + 1].kind == "INT":
                self.advance()
                d = self.expect_int("a denominator")
                if d == 0 or field.p and Fraction(v, d).denominator % field.p == 0:
                    raise SessionError(
                        f"division by zero in a coefficient over {field!r}", t.line, t.col
                    )
                v = Fraction(v, d)
            if field.p:
                v = field.coerce(v)
            return v, (0,) * self.ambient.nvars
        if t.kind == "IDENT":
            idx = self.var_index.get(t.value)
            if idx is None:
                raise SessionError(f"unknown variable {t.value!r}", t.line, t.col)
            exps = [0] * self.ambient.nvars
            exps[idx] = 1
            return 1, tuple(exps)
        if t.kind == "SYM" and t.value == "(":
            p = self.parse_sum()
            self.expect_sym(")")
            return p
        raise SessionError(f"expected a polynomial, found {self._show(t)}", t.line, t.col)


def parse_session(text: str, field=QQ) -> Session:
    """Parse session text into a validated Session over the given field."""
    return _Parser(tokenize(text), field).parse()


def _poly_parser(text: str, ambient: PolyRing) -> _Parser:
    """A parser for polynomial expressions over ambient's variables."""
    p = _Parser(tokenize(text), ambient.field)
    p.ambient = ambient
    p.var_index = {nm: i for i, nm in enumerate(ambient.names)}
    return p


def parse_polynomial(text: str, ring) -> Poly:
    """Parse a standalone polynomial against a PolyRing or GradedRing."""
    p = _poly_parser(text, ring.ambient if isinstance(ring, GradedRing) else ring)
    poly = p.parse_sum()
    p.expect_end("polynomial")
    return poly


_T_RING = PolyRing(("t",))


def _int_t_poly(poly: Poly, scale: int = 1) -> IntPoly:
    """scale * poly, a polynomial over QQ in t, as an IntPoly; raises if a
    coefficient is not an integer."""
    coeffs = [0] * (max((m[0] for m in poly.terms), default=-1) + 1)
    for (k,), c in poly.terms.items():
        c *= scale
        if c.denominator != 1:
            raise SessionError(f"coefficient {c} is not an integer")
        coeffs[k] = int(c)
    return IntPoly(coeffs)


def parse_t_polynomial(text: str) -> IntPoly:
    """Parse a univariate integer polynomial in t (as printed by reports)."""
    return _int_t_poly(parse_polynomial(text, _T_RING))


def parse_rational_function(text: str) -> RatFun:
    """Parse 'num / den' as printed by reports, normalizing the result."""
    p = _poly_parser(text, _T_RING)
    num = p.parse_sum()
    if p.at_sym("/"):
        p.advance()
        den = p.parse_factor()
    else:
        den = _T_RING.one()
    p.expect_end("rational function")
    # fractional coefficients are fine here: scale both sides integral
    scale = lcm(*(c.denominator for q in (num, den) for c in q.terms.values()))
    return ratfun_normalize(_int_t_poly(num, scale), _int_t_poly(den, scale))
