import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynkin_coha.polyblock import MPoly, Var, u, w
from dynkin_coha.polytext import PolyParseError, parse_poly


def test_parse_simple_difference():
    assert parse_poly("w[1,1] - w[2,1]") == MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))


def test_parse_precedence_and_parentheses():
    got = parse_poly("2*w[1,1]^2 + (w[1,1] - 1)*u[2,1]")
    expected = (
        2 * MPoly.var(w(1, 1), 2)
        + (MPoly.var(w(1, 1)) - MPoly.one()) * MPoly.var(u(2, 1))
    )
    assert got == expected


def test_parse_unary_minus():
    assert parse_poly("-w[1,1]") == -MPoly.var(w(1, 1))
    assert parse_poly("3 - -2") == MPoly.const(5)


def test_render_parse_round_trip():
    rng = random.Random(19)
    vs = [w(1, 1), w(1, 2), w(2, 1), u(3, 1)]
    for _ in range(30):
        poly = MPoly.zero()
        for _ in range(rng.randint(1, 5)):
            term = MPoly.const(Fraction(rng.randint(-3, 3)))
            for v in vs:
                term = term * MPoly.var(v, rng.randint(0, 2))
            poly = poly + term
        if not poly.has_integer_coefficients():
            continue
        assert parse_poly(str(poly)) == poly


VARIABLES = [Var(kind, i, j) for kind in "wuab" for i in (1, 2) for j in (1, 3)]

int_polys = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 4)), max_size=4)
    .map(lambda pairs: tuple(sorted(dict(pairs).items()))),
    st.integers(-10**6, 10**6).filter(bool),
    max_size=6,
).map(lambda d: sum(
    (MPoly.monomial(dict(pairs), c) for pairs, c in d.items()), MPoly.zero()
))


@settings(deadline=None, max_examples=80, derandomize=True)
@given(int_polys)
def test_render_parse_round_trip_property(p):
    parsed = parse_poly(str(p))
    assert parsed == p
    assert all(type(c) is int for c in parsed.terms.values())


@pytest.mark.parametrize(
    "text",
    ["w[1,1] +", "w[1]", "(w[1,1]", "w[1,1] w[2,1]", "^2", "w[1,1]^-1", "x[1,1]"],
)
def test_parse_errors_report_column(text):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert "column" in str(err.value)


def test_kind_restriction():
    with pytest.raises(PolyParseError):
        parse_poly("a[1,1]", allowed_kinds="w")
    parse_poly("a[1,1]", allowed_kinds="ab")
