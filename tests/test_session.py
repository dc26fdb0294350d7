"""The session language: tokenizer, parser, polynomial expressions."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gradedchi
from gradedchi.errors import SessionError
from gradedchi.rings import GradedRing, Poly, PolyRing, field_from_name
from gradedchi.session import (
    parse_polynomial,
    parse_rational_function,
    parse_session,
    parse_t_polynomial,
    tokenize,
)

GOOD = """\
# a complete session
ring R { vars x:1, y:1, z:2; relations x*y - z; }
ideal I = (x, z);
ideal J = (y);
hilbert I;
chi I J;
tor I J --imax 4 --dmax 9;
check I J;
gulliksen I J;
cartier x 2 J;
"""


def test_tokenize_kinds_and_positions():
    toks = tokenize("ring R {\n  vars x:1; # comment\n}")
    kinds = [(t.kind, t.value) for t in toks]
    assert kinds[0] == ("IDENT", "ring")
    assert ("SYM", "{") in kinds and ("SYM", ":") in kinds
    assert kinds[-1] == ("EOF", "")
    # line/col are 1-based; 'vars' starts line 2 col 3
    vars_tok = next(t for t in toks if t.value == "vars")
    assert (vars_tok.line, vars_tok.col) == (2, 3)


def test_tokenize_flags_and_errors():
    toks = tokenize("tor I J --imax 4;")
    flag = next(t for t in toks if t.kind == "FLAG")
    assert flag.value == "imax"
    with pytest.raises(SessionError, match="unexpected character"):
        tokenize("ideal I = (x % y);")


def test_parse_good_session():
    s = parse_session(GOOD)
    assert s.ring_name == "R"
    assert s.ring.weights == (1, 1, 2)
    assert set(s.ideals) == {"I", "J"}
    kinds = [c.kind for c in s.commands]
    assert kinds == ["hilbert", "chi", "tor", "check", "gulliksen", "cartier"]
    tor = s.commands[2]
    assert tor.flags == {"imax": 4, "dmax": 9}
    assert s.commands[3].flags == {}
    cartier = s.commands[5]
    assert cartier.number == 2 and cartier.idents == ("J",)
    assert str(cartier.poly) == "x"


def test_default_weight_is_one():
    s = parse_session("ring R { vars x, y; }\nideal I = (x);\nhilbert I;")
    assert s.ring.weights == (1, 1)


def test_polynomial_precedence():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    assert parse_polynomial("x + y*z^2", r) == x + y * z**2
    assert parse_polynomial("-x^2", r) == -(x**2)
    assert parse_polynomial("(x + y)^2", r) == (x + y) ** 2
    assert parse_polynomial("2*x - 3*y + 1", r) == 2 * x - 3 * y + r.one()
    assert parse_polynomial("1/2*x", r) == r.constant(Fraction(1, 2)) * x
    assert parse_polynomial("x - - y", r) == x + y


def test_polynomial_errors():
    r = PolyRing(("x", "y"))
    with pytest.raises(SessionError, match="unknown variable 'q'"):
        parse_polynomial("x + q", r)
    with pytest.raises(SessionError, match="trailing input"):
        parse_polynomial("x 3", r)
    with pytest.raises(SessionError, match="division by zero"):
        parse_polynomial("1/0*x", r)
    with pytest.raises(SessionError, match="expected a polynomial"):
        parse_polynomial("*x", r)


NON_DECIMAL_DIGITS = [
    # (session, line, col of the superscript two): a weight, an exponent, and
    # a coefficient followed by one
    ("ring R { vars x:\u00b2; }\n", 1, 17),
    ("ring R { vars x; }\nideal I = (x^\u00b2);\n", 2, 14),
    ("ring R { vars x; }\nideal I = (2\u00b2 * x);\n", 2, 13),
]


@pytest.mark.parametrize("text, line, col", NON_DECIMAL_DIGITS)
def test_non_decimal_digits_are_session_errors(text, line, col):
    """A digit that int() rejects, such as a superscript two, is no number:
    the tokenizer reports it as an unexpected character with its position."""
    with pytest.raises(SessionError) as ei:
        parse_session(text)
    assert str(ei.value) == f"line {line}, col {col}: unexpected character '\u00b2'"


@pytest.mark.parametrize("text, line, col", NON_DECIMAL_DIGITS)
def test_non_decimal_digits_exit_one_without_traceback(text, line, col):
    env = {**os.environ, "PYTHONPATH": str(Path(gradedchi.__file__).parents[1])}
    argv = [sys.executable, "-m", "gradedchi", "-"]
    done = subprocess.run(argv, env=env, input=text, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == f"gradedchi: error: line {line}, col {col}: unexpected character '\u00b2'\n"


def test_error_positions_are_reported():
    bad = "ring R { vars x:1; }\nideal I = (x + w);\nhilbert I;"
    with pytest.raises(SessionError) as ei:
        parse_session(bad)
    assert str(ei.value).startswith("line 2, col 16:")
    assert "unknown variable 'w'" in str(ei.value)


def test_session_structure_errors():
    with pytest.raises(SessionError, match="must start with a ring"):
        parse_session("ideal I = (x);")
    with pytest.raises(SessionError, match="only one ring declaration"):
        parse_session("ring R { vars x; }\nring S { vars y; }")
    with pytest.raises(SessionError, match="unknown ideal 'J'"):
        parse_session("ring R { vars x; }\nideal I = (x);\nhilbert J;")
    with pytest.raises(SessionError, match="already declared"):
        parse_session("ring R { vars x; }\nideal I = (x);\nideal I = (x);")
    with pytest.raises(SessionError, match="unknown command 'frob'"):
        parse_session("ring R { vars x; }\nfrob;")
    with pytest.raises(SessionError, match="unknown flag --deep"):
        parse_session("ring R { vars x; }\nideal I = (x);\ntor I I --deep 3;")
    with pytest.raises(SessionError, match="expected ';'"):
        parse_session("ring R { vars x; }\nideal I = (x)")
    with pytest.raises(SessionError, match="duplicate variable"):
        parse_session("ring R { vars x, x; }")
    with pytest.raises(SessionError, match="weights must be >= 1"):
        parse_session("ring R { vars x:0; }")


def test_generator_validation():
    with pytest.raises(SessionError, match="generator .* is not homogeneous"):
        parse_session("ring R { vars x, y; }\nideal I = (x + y^2);")
    with pytest.raises(SessionError, match="nonzero constant"):
        parse_session("ring R { vars x; }\nideal I = (3);")
    with pytest.raises(SessionError, match="relation .* is not homogeneous"):
        parse_session("ring R { vars x, y; relations x + y^2; }")
    # zero generators are silently dropped
    s = parse_session("ring R { vars x; }\nideal I = (x, x - x);")
    assert s.ideals["I"] == (PolyRing(("x",)).gen(0),)


def test_weighted_homogeneity_in_sessions():
    # z has weight 2, so x*y - z is homogeneous of degree 2
    s = parse_session("ring R { vars x:1, y:1, z:2; relations x*y - z; }")
    assert s.ring.relations[0].homogeneous_degree() == 2


def test_cartier_greedy_polynomial_parse():
    s = parse_session(
        "ring R { vars x0, x1, x2; relations x0*x2 - x1^2; }\n"
        "ideal C = (x1, x2);\n"
        "cartier x0 + x1 2 C;"
    )
    cmd = s.commands[0]
    assert str(cmd.poly) == "x0 + x1"
    assert cmd.number == 2


def test_cartier_multiple_must_be_positive():
    text = (
        "ring R { vars x0, x1, x2; relations x0*x2 - x1^2; }\n"
        "ideal C = (x1, x2);\n"
        "cartier x0 0 C;"
    )
    with pytest.raises(SessionError, match="must be >= 1") as ei:
        parse_session(text)
    assert (ei.value.line, ei.value.col) == (3, 12)


def test_prime_field_sessions():
    s = parse_session("ring R { vars x, y; }\nideal I = (5*x + y);", field_from_name("fp:5"))
    (g,) = s.ideals["I"]
    assert g == s.ambient.gen(1)  # 5*x vanishes mod 5


def test_denominator_vanishing_mod_p_is_a_session_error():
    text = "ring R { vars x, y; }\nideal I = (x + 1/7*y);\n"
    with pytest.raises(SessionError, match="division by zero in a coefficient") as ei:
        parse_session(text, field_from_name("fp:7"))
    assert (ei.value.line, ei.value.col) == (2, 16)
    assert parse_session(text).ideals["I"]  # fine over QQ
    r = PolyRing(("x", "y"), field=field_from_name("fp:7"))
    with pytest.raises(SessionError, match="coefficient over GF\\(7\\)"):
        parse_polynomial("x + 3/14*y", r)
    assert parse_polynomial("7/14*x", r) == parse_polynomial("4*x", r)  # 1/2 = 4 mod 7


def test_polynomial_round_trip_randomized():
    rng = random.Random(3131)
    r = PolyRing(("x", "y", "z"), (1, 2, 1))
    from oracles import monomials_of_degree

    for _ in range(150):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            d = rng.randrange(0, 5)
            monos = monomials_of_degree(r.weights, d)
            if not monos:
                continue
            m = rng.choice(monos)
            c = Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 2, 3]))
            if c:
                terms[m] = c
        p = Poly(r, terms)
        assert parse_polynomial(str(p), r) == p


def _random_expression(rng, r, depth):
    """(text, value) of a random expression: terms of signed factors with
    powers, fractions and parenthesised sums; the value is built by Poly
    arithmetic, the generic path the parser takes only for parentheses."""
    p = r.field.p
    dens = [d for d in (2, 3, 5) if not p or d % p]

    def atom():
        k = rng.randrange(4 if depth else 3)
        if k == 0:
            v = rng.randrange(10)
            return str(v), r.constant(v)
        if k == 1:
            v, d = rng.randrange(10), rng.choice(dens)
            return f"{v}/{d}", r.constant(Fraction(v, d))
        if k == 2:
            i = rng.randrange(r.nvars)
            return r.names[i], r.gen(i)
        text, value = _random_expression(rng, r, depth - 1)
        return f"({text})", value

    def factor():
        if rng.random() < 0.2:
            text, value = factor()
            return f"-{text}" if text[0] != "-" else f"- {text}", -value
        text, value = atom()
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            e = rng.randrange(4)
            text, value = f"{text}^{e}", value**e
        return text, value

    def term():
        text, value = factor()
        for _ in range(rng.randrange(3)):
            t, v = factor()
            text, value = f"{text}*{t}", value * v
        return text, value

    text, value = term()
    for _ in range(rng.randrange(3)):
        t, v = term()
        if rng.random() < 0.5:
            text, value = f"{text} + {t}", value + v
        else:
            text, value = f"{text} - {t}", value - v
    return text, value


def test_parsed_terms_match_poly_arithmetic():
    # numbers and variable powers are multiplied into one term directly;
    # the value, and its coefficients' types, are those of Poly arithmetic
    rng = random.Random(3132)
    for field in ("qq", "fp:2", "fp:7", "fp:32003"):
        r = PolyRing(("x", "y", "z"), field=field_from_name(field))
        for _ in range(150):
            text, value = _random_expression(rng, r, 2)
            parsed = parse_polynomial(text, r)
            assert parsed == value, text
            assert [type(c) for c in parsed.terms.values()] == [
                type(value.terms[m]) for m in parsed.terms
            ]


def test_cancelling_terms_match_poly_arithmetic():
    # a sum's terms are added into one dict before its Poly is made: terms
    # that cancel leave no zero behind, and coefficients keep their types
    for field in ("qq", "fp:2", "fp:7"):
        r = PolyRing(("x", "y", "z"), field=field_from_name(field))
        x, y, z = r.gens()
        cases = [
            ("x - x + x", x - x + x),
            ("2*x*y - x*y - x*y", 2 * x * y - x * y - x * y),
            ("x + x", x + x),
            ("x - x", r.zero()),
            ("x*y + 3*(x - z)*y^2 - x*y - 3*x*y^2", 3 * (x - z) * y**2 - 3 * x * y**2),
            ("z*(x + y) - (y + x)*z + y - 2*-(y*z)", y + 2 * y * z),
        ]
        if field != "fp:2":
            cases.append(("1/2*x - x*1/2 + (x - 1/2*x)*y", (x - Fraction(1, 2) * x) * y))
        for text, value in cases:
            parsed = parse_polynomial(text, r)
            assert parsed == value, (field, text)
            assert all(parsed.terms.values()), (field, text)
            assert {m: type(c) for m, c in parsed.terms.items()} == {
                m: type(c) for m, c in value.terms.items()
            }, (field, text)
    gf2 = PolyRing(("x", "y"), field=field_from_name("fp:2"))
    assert parse_polynomial("x + x", gf2).is_zero
    assert parse_polynomial("x*y + y + x*y", gf2) == gf2.gen(1)


def test_polynomial_error_messages_and_positions():
    cases = (
        ("x + q", "qq", "line 1, col 5: unknown variable 'q'"),
        ("2*x^", "qq", "line 1, col 5: expected an exponent, found end of input"),
        ("2*(x + y", "qq", "line 1, col 9: expected ')', found end of input"),
        ("x * * y", "qq", "line 1, col 5: expected a polynomial, found '*'"),
        ("1/0*x", "qq", "line 1, col 1: division by zero in a coefficient over QQ"),
        ("x + 3/14*y", "fp:7", "line 1, col 5: division by zero in a coefficient over GF(7)"),
        ("x^y", "qq", "line 1, col 3: expected an exponent, found 'y'"),
        ("-", "qq", "line 1, col 2: expected a polynomial, found end of input"),
        ("2*x)", "qq", "line 1, col 4: trailing input after polynomial: ')'"),
        ("-(x + -q)^2", "qq", "line 1, col 8: unknown variable 'q'"),
        ("3 * x^2 * - 1/4^", "fp:2", "line 1, col 13: division by zero in a coefficient over GF(2)"),
        ("x*y*z*(", "qq", "line 1, col 8: expected a polynomial, found end of input"),
        ("1/2/3*x", "fp:3", "line 1, col 4: trailing input after polynomial: '/'"),
        ("x^-1", "qq", "line 1, col 3: expected an exponent, found '-'"),
    )
    for text, field, message in cases:
        r = PolyRing(("x", "y", "z"), field=field_from_name(field))
        with pytest.raises(SessionError) as ei:
            parse_polynomial(text, r)
        assert str(ei.value) == message


def test_t_polynomial_and_ratfun_round_trip():
    from gradedchi.arith import IntPoly, ratfun_normalize

    assert parse_t_polynomial("1 - 2*t + 5*t^2") == IntPoly((1, -2, 5))
    assert parse_t_polynomial("0") == IntPoly(())
    r = ratfun_normalize(IntPoly((1,)), IntPoly((1, 2, -1)))
    assert parse_rational_function(str(r)) == r
    r2 = ratfun_normalize(IntPoly((1, -1)), IntPoly((1,)))
    assert parse_rational_function(str(r2)) == r2
    with pytest.raises(SessionError, match="not an integer"):
        parse_t_polynomial("1/2*t")


def test_ratfun_round_trip_randomized():
    from gradedchi.arith import IntPoly, ratfun_normalize

    rng = random.Random(3232)
    for _ in range(200):
        num = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
        den = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
        if den.is_zero or den.coeff(0) == 0:
            continue
        r = ratfun_normalize(num, den)
        assert parse_rational_function(str(r)) == r


# A searched fuzz of the parser: text built from the grammar's own tokens,
# mostly as well-formed fragments so the search reaches every production.

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

_FIELDS = ("qq", "fp:2", "fp:3", "fp:32003")
_VARS = ("x", "y", "z")
_WORDS = ("ring", "vars", "relations", "ideal", "hilbert", "chi", "tor", "check", "gulliksen")
_WORDS += ("cartier", "R", "I", "J") + _VARS
_digit = st.sampled_from("0123456789")
_FRACTIONS = [f"{a}/{b}" for a in range(10) for b in range(10)]
_coefficient = st.one_of(_digit, st.sampled_from(_FRACTIONS))
_token = st.one_of(
    st.sampled_from(_WORDS),
    _coefficient,
    st.sampled_from(tuple("{}(),;:=+-*^/")),
    st.sampled_from(("--imax", "--dmax", "--deep")),
)
_noise = st.lists(_token, min_size=1, max_size=6).map(" ".join)
_var = st.sampled_from(_VARS)
# powers only of variables, small constants and two-term sums, so no example
# builds a large power
_SIMPLE = _VARS + ("2", "1/3")
_POWERS = [f"{a}^{e}" for a in _SIMPLE for e in range(10)]
_POWERS += [
    f"({a} {op} {b})^{e}" for a in _SIMPLE for op in "+-" for b in _SIMPLE for e in range(10)
]
_factor = st.one_of(_var, _coefficient, st.sampled_from(_POWERS), _var.map("-".__add__))
_term = st.lists(_factor, min_size=1, max_size=2).map(" * ".join)
# a monomial is homogeneous for every weighting, a linear form whenever the
# variables share a weight
_poly = st.one_of(
    st.tuples(_coefficient, _var, _var).map("*".join),
    st.lists(st.tuples(_coefficient, _var).map("*".join), min_size=1, max_size=2).map(" + ".join),
    st.lists(_term, min_size=1, max_size=2).map(" - ".join),
)
_polys = st.lists(_poly, min_size=1, max_size=2).map(", ".join)
_weighted = [f"{a}, {b}:{w}, {c}" for a, b, c in itertools.permutations(_VARS) for w in (1, 1, 2)]
_weighted.append("x:0, y, z")
_ring = st.builds(
    lambda names, rels: f"ring R {{ vars {names};{rels} }}",
    st.sampled_from(_weighted),
    st.one_of(st.just(""), _polys.map(" relations {};".format)),
)
_name = st.sampled_from(("I", "J"))
_flag = st.tuples(st.sampled_from(("--imax", "--dmax")), _digit).map(" ".join)
_command = st.one_of(
    st.tuples(st.sampled_from(("chi", "gulliksen", "tor", "check")), _name, _name).map(" ".join),
    st.tuples(st.sampled_from(("tor", "check")), _name, _name, _flag).map(" ".join),
    _name.map("hilbert ".__add__),
    st.tuples(_poly, _digit, _name).map(lambda t: "cartier " + " ".join(t)),
)


def _join(ring, i_gens, j_gens, commands, noise, at, sep):
    parts = [ring, f"ideal I = ({i_gens});", f"ideal J = ({j_gens});"]
    parts += [c + ";" for c in commands]
    if noise:
        parts.insert(at % (len(parts) + 1), noise)
    return sep.join(parts)


_session = st.builds(
    _join,
    _ring,
    _polys,
    _polys,
    st.lists(_command, max_size=2),
    st.one_of(st.just(""), _noise),
    st.integers(0, 6),
    st.sampled_from((" ", "\n")),
)


@settings(max_examples=200, deadline=None, database=None)
@given(_session, st.sampled_from(_FIELDS))
def test_parser_raises_only_session_errors_searched(text, field):
    try:
        parse_session(text, field_from_name(field))
    except SessionError:
        pass
