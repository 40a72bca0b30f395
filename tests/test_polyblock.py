import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynkin_coha.polyblock import (
    MAX_EXPONENT,
    MPoly,
    NotDivisible,
    Var,
    divided_difference,
    exact_div_linear,
    symmetrize_check,
    u,
    w,
)
from dynkin_coha.polytext import parse_poly
from dynkin_coha.quiver import CheckFailed


def rand_poly(rng, variables, max_terms=4, max_exp=3):
    poly = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = MPoly.const(Fraction(rng.randint(-4, 4)))
        for v in variables:
            term = term * MPoly.var(v, rng.randint(0, max_exp))
        poly = poly + term
    return poly


def test_difference_of_squares():
    x, y = w(1, 1), w(1, 2)
    lhs = (MPoly.var(x) - MPoly.var(y)) * (MPoly.var(x) + MPoly.var(y))
    assert lhs == MPoly.var(x, 2) - MPoly.var(y, 2)


def test_rename_acts_on_every_monomial():
    p = MPoly.var(w(1, 1), 2) + MPoly.var(w(1, 1)) * MPoly.var(w(2, 1))
    q = p.rename({w(1, 1): u(2, 1)})
    assert q == MPoly.var(u(2, 1), 2) + MPoly.var(u(2, 1)) * MPoly.var(w(2, 1))


def test_distributivity_randomized():
    rng = random.Random(13)
    vs = [w(1, 1), w(1, 2), w(2, 1)]
    for _ in range(25):
        p, q, r = (rand_poly(rng, vs) for _ in range(3))
        assert (p + q) * r == p * r + q * r


def test_exact_div_basic():
    x, y = w(1, 1), w(1, 2)
    p = MPoly.var(x, 2) - MPoly.var(y, 2)
    assert exact_div_linear(p, x, y) == MPoly.var(x) + MPoly.var(y)


def test_exact_div_not_divisible():
    x, y, z = w(1, 1), w(1, 2), w(2, 1)
    with pytest.raises(NotDivisible):
        exact_div_linear(MPoly.var(x) - MPoly.var(z), x, y)


def test_vandermonde_peels_to_one():
    vs = [w(1, j) for j in range(1, 5)]
    prod = MPoly.one()
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    for a, b in pairs:
        prod = prod * (MPoly.var(a) - MPoly.var(b))
    for a, b in pairs:
        prod = exact_div_linear(prod, a, b)
    assert prod == MPoly.one()


def test_exact_div_inverts_multiplication():
    rng = random.Random(14)
    x, y = w(1, 1), w(1, 2)
    vs = [x, y, w(2, 1)]
    for _ in range(20):
        p = rand_poly(rng, vs)
        shifted = p * (MPoly.var(x) - MPoly.var(y))
        assert exact_div_linear(shifted, x, y) == p


SLOTS = [w(1, 1), w(1, 2), w(1, 3), w(2, 1)]

polys = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in SLOTS)),
    st.integers(-4, 4),
    max_size=6,
).map(lambda d: sum(
    (MPoly.monomial(dict(zip(SLOTS, exps)), Fraction(c)) for exps, c in d.items()),
    MPoly.zero(),
))
slot_pairs = st.permutations(SLOTS).map(lambda vs: (vs[0], vs[1]))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(polys, slot_pairs)
def test_exact_div_round_trips_and_refuses_non_multiples(p, pair):
    a, b = pair
    assert exact_div_linear(p * (MPoly.var(a) - MPoly.var(b)), a, b) == p
    # p is a multiple of a - b exactly when p vanishes at a = b
    if p.rename({a: b}).is_zero():
        assert exact_div_linear(p, a, b) * (MPoly.var(a) - MPoly.var(b)) == p
    else:
        with pytest.raises(NotDivisible):
            exact_div_linear(p, a, b)


laurent_monomials = st.tuples(*(st.integers(-3, 2) for _ in SLOTS)).filter(
    lambda exps: min(exps) < 0
).map(lambda exps: MPoly.monomial(dict(zip(SLOTS, exps))))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(polys, laurent_monomials, slot_pairs)
def test_laurent_laws(p, m, pair):
    [(pairs, _)] = m.items()
    inverse = MPoly.monomial({v: -e for v, e in pairs})
    assert m * inverse == MPoly.one()
    assert (p * m) * inverse == p
    assert 0 not in {e for pairs, _ in (p * m).items() for _, e in pairs}
    # a^-1 * b merges to the unit under b -> a
    a, b = pair
    merged = MPoly.monomial({a: -1, b: 1}).rename({b: a})
    assert merged == MPoly.one() and list(merged.items()) == [((), 1)]
    assert 0 not in {e for pairs, _ in (p * m).rename({b: a}).items() for _, e in pairs}
    laurent = p * m
    assert exact_div_linear(laurent * (MPoly.var(a) - MPoly.var(b)), a, b) == laurent


@settings(deadline=None, max_examples=60, derandomize=True)
@given(polys)
def test_symmetrize_check_matches_swapping(p):
    swapped = [
        p.rename({a: b, b: a}) == p
        for a, b in [(w(1, 1), w(1, 2)), (w(1, 2), w(1, 3))]
    ]
    assert symmetrize_check(p, "w", (3, 1)) == all(swapped)
    assert symmetrize_check(p + p.rename({w(1, 1): w(1, 2), w(1, 2): w(1, 1)}), "w", (2,))


def test_symmetrize_check_examples():
    p = MPoly.var(w(1, 1)) + MPoly.var(w(1, 2))
    assert symmetrize_check(p, "w", (2,))
    assert not symmetrize_check(MPoly.var(w(1, 1)), "w", (2,))


def test_degree_additivity():
    rng = random.Random(15)
    vs = [w(1, 1), w(2, 1)]
    for _ in range(20):
        p, q = rand_poly(rng, vs), rand_poly(rng, vs)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_canonical_rendering():
    p = MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))
    assert str(p) == "w[1,1] - w[2,1]"
    assert str(MPoly.zero()) == "0"
    assert str(MPoly.const(Fraction(-3, 2))) == "-3/2"
    q = MPoly.var(w(1, 1), 2) * MPoly.var(u(2, 1)) * 2
    assert str(q) == "2*u[2,1]*w[1,1]^2"


def test_power_matches_repeated_multiplication():
    base = MPoly.var(w(1, 1)) + MPoly.one()
    assert base ** 3 == base * base * base
    assert base ** 0 == MPoly.one()


def test_power_stops_before_a_needless_square():
    # x^MAX_EXPONENT fits; squaring x once more after the last bit would not
    x = MPoly.var(w(1, 1))
    top = x ** MAX_EXPONENT
    assert top == MPoly.monomial({w(1, 1): MAX_EXPONENT})
    xy = MPoly.monomial({w(1, 1): 1, w(2, 1): -1})
    assert xy ** (MAX_EXPONENT // 2) == MPoly.monomial(
        {w(1, 1): MAX_EXPONENT // 2, w(2, 1): -(MAX_EXPONENT // 2)}
    )
    with pytest.raises(CheckFailed):
        x ** (MAX_EXPONENT + 1)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, MAX_EXPONENT), st.sampled_from([1, -1]), st.sampled_from([1, -1]),
       slot_pairs)
@example(MAX_EXPONENT, 1, 1, (w(1, 1), w(2, 1)))
@example(0, -1, -1, (w(1, 1), w(2, 1)))
def test_field_boundary(k, sign_a, sign_b, pair):
    """Monomials with the largest exponent sum allowed round-trip through *,
    rename and str; one more raises CheckFailed."""
    a, b = pair
    ea, eb = sign_a * k, sign_b * (MAX_EXPONENT - k)
    m = MPoly.monomial({a: ea, b: eb})
    assert MPoly.monomial({a: ea}) * MPoly.monomial({b: eb}) == m
    pairs = tuple(sorted((v, e) for v, e in ((a, ea), (b, eb)) if e))
    assert list(m.items()) == [(pairs, 1)]
    assert m.degree() == ea + eb
    assert m.rename({b: a}) == MPoly.monomial({a: ea + eb})
    assert m.rename({a: b, b: a}) == MPoly.monomial({a: eb, b: ea})
    assert str(m) == "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in pairs)
    if sign_a > 0 and sign_b > 0:
        assert parse_poly(str(m)) == m
    with pytest.raises(CheckFailed):
        m * MPoly.var(a, sign_a)
    with pytest.raises(CheckFailed):
        MPoly.monomial({a: ea + sign_a, b: eb})
    with pytest.raises(CheckFailed):
        divided_difference(m, a, b)


def test_field_range_is_refused_under_python_O():
    code = (
        "import sys\n"
        "from dynkin_coha.polyblock import MAX_EXPONENT, MPoly, w\n"
        "from dynkin_coha.quiver import CheckFailed\n"
        "x = MPoly.var(w(1, 1))\n"
        "top = x ** MAX_EXPONENT\n"
        "for attempt in (lambda: top * x, lambda: x ** (MAX_EXPONENT + 1),\n"
        "                lambda: MPoly.monomial({w(1, 1): -MAX_EXPONENT - 1})):\n"
        "    try:\n"
        "        attempt()\n"
        "    except CheckFailed:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
        "print(sys.flags.optimize, 'refused')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 refused\n"
