"""Integer coefficients stay Python ints through the exact cores.

Every COHA class, residue product, classifying-space series and dilogarithm
coefficient is an integer; these tests pin that the polynomial types and the
directly built series keep such values as int (no Fraction is built), and
that rational inputs still give the right rationals.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from dynkin_coha import coha, modrep, residue
from dynkin_coha.polyblock import MPoly, exact_div_linear, w
from dynkin_coha.qalg import dilog_series, dilog_series_truncated
from dynkin_coha.qseries import QRat, QTruncSeries, f_rational, f_series
from dynkin_coha.quiver import Quiver
from dynkin_coha.residue import LaurentPoly, a_var

from conftest import load_quiver


def all_int(values) -> bool:
    return all(type(c) is int for c in values)


def _random_element(rng, q, gamma, degree):
    """A block-symmetric element with random integer coefficients over
    products of monomial symmetric polynomials."""
    poly = MPoly.zero()
    for lams in product(*(
        [lam for d in range(degree + 1) for lam in coha.partitions_at_most(d, size)]
        for size in gamma
    )):
        term = MPoly.const(rng.randint(-3, 3))
        for i, lam in enumerate(lams, start=1):
            term = term * coha.monomial_symmetric(
                [w(i, j) for j in range(1, gamma[i - 1] + 1)], lam
            )
        poly = poly + term
    return coha.CohaElement(q, gamma, poly)


@pytest.mark.parametrize("name,gamma", [("a2", (2, 2)), ("a3", (1, 1, 1))])
def test_orbit_classes_have_int_coefficients(name, gamma):
    q = load_quiver(name)
    orbits = [(2, 2, 2)] if name == "a2" else modrep.orbits_for(q, gamma)
    for m in orbits:
        poly = coha.quiver_polynomial(q, m).poly
        assert poly and all_int(poly.terms.values()), m
        assert all_int(coha.euler_class(q, m).terms.values()), m


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_shuffle_products_have_int_coefficients(name):
    q = load_quiver(name)
    rng = random.Random(f"int/{name}")
    weights = [g for g in product(range(3), repeat=q.n) if 0 < sum(g) <= 3]
    for _ in range(6):
        g1, g2 = rng.choice(weights), rng.choice(weights)
        f1 = _random_element(rng, q, g1, rng.randint(0, 2))
        f2 = _random_element(rng, q, g2, rng.randint(0, 2))
        assert all_int(coha.shuffle_mul(f1, f2).poly.terms.values())


@pytest.mark.parametrize("name", ["a2", "a3"])
def test_residue_products_have_int_coefficients(name):
    q = load_quiver(name)
    rng = random.Random(f"int-residue/{name}")
    weights = [g for g in product(range(3), repeat=q.n) if 0 < sum(g) <= 2]
    for _ in range(6):
        gamma1, gamma2 = rng.choice(weights), rng.choice(weights)
        exps = {a_var(i, s): rng.randint(0, 2)
                for i in range(1, q.n + 1) for s in range(1, gamma1[i - 1] + 1)}
        g = LaurentPoly.monomial(exps, rng.choice((-3, -2, 2, 3)))
        assert all_int(g.terms.values())
        f2 = _random_element(rng, q, gamma2, 1)
        product_ = residue.residue_mul(q, g, f2, gamma1, gamma2)
        assert all_int(product_.poly.terms.values())
        f1 = residue.ddelta_transform(q, gamma1, residue.standard_grouping(gamma1), g)
        assert product_.poly == coha.shuffle_mul(f1, f2).poly


def test_series_have_int_coefficients():
    for n in range(6):
        assert all_int(f_series(n, 25).coeffs.values())
        assert QTruncSeries.from_qrat(f_rational(n), 40).agrees_with(f_series(n, 20), 40)
    assert all_int(QTruncSeries.one(4).coeffs.values())
    assert all_int(QTruncSeries.s_power(-3, 4).coeffs.values())


def test_mixed_int_and_fraction_polynomials():
    x, y = w(1, 1), w(1, 2)
    half = MPoly.var(x) * Fraction(1, 2)
    assert half.coefficient(((x, 1),)) == Fraction(1, 2)
    assert not half.has_integer_coefficients()
    assert half + half == MPoly.var(x)
    assert list((half * 2).items()) == [(((x, 1),), 1)]
    assert list(MPoly.const(Fraction(4, 2)).items()) == [((), 2)]
    assert type(MPoly.const(Fraction(4, 2)).coefficient(())) is int
    assert str(MPoly.const(Fraction(-3, 2)) * MPoly.var(y)) == "-3/2*w[1,2]"
    p = (MPoly.var(x) * Fraction(2, 3) + MPoly.const(Fraction(-1, 5))) * (
        MPoly.var(x) - MPoly.var(y)
    )
    assert exact_div_linear(p, x, y) == MPoly.var(x) * Fraction(2, 3) - MPoly.const(
        Fraction(1, 5)
    )
    third = LaurentPoly.monomial({a_var(1, 1): -1}, Fraction(1, 3))
    assert third * LaurentPoly.monomial({a_var(1, 1): 1}, 3) == LaurentPoly.one()
    assert list(LaurentPoly.const(Fraction(6, 3)).items()) == [((), 2)]


def test_rational_expansions():
    # 1 / (2 - s) = sum_k s^k / 2^(k+1)
    s = QTruncSeries.from_qrat(QRat((Fraction(1),), (Fraction(2), Fraction(-1))), 6)
    assert s.coeffs == {k: Fraction(1, 2 ** (k + 1)) for k in range(7)}
    # 1 / (s^2 - 1) = -(1 + s^2 + s^4 + ...)
    t = QTruncSeries.from_qrat(QRat((1,), (-1, 0, 1)), 6)
    assert t.coeffs == {0: -1, 2: -1, 4: -1, 6: -1}
    # a rational numerator over a unit denominator
    u_ = QTruncSeries.from_qrat(QRat((Fraction(3, 4),)) / (QRat.one() - QRat.s_power(1)), 3)
    assert u_.coeffs == {k: Fraction(3, 4) for k in range(4)}


# A quiver whose numbering breaks the head < tail convention flips the sign
# of the lambda form, so its dilogarithm terms reach negative s-exponents.
REVERSED_A2 = Quiver(n=2, edges=((1, 2),), dynkin_type="A2")


@pytest.mark.parametrize("name", ["a2", "a3", "d4", "reversed-a2"])
def test_truncated_dilog_matches_exact_expansion(name):
    q = REVERSED_A2 if name == "reversed-a2" else load_quiver(name)
    gammas = [g for g in product(range(3), repeat=q.n) if 0 < sum(g) <= 3]
    seen_negative = False
    for gamma0 in gammas:
        for cap in [(2,) * q.n, (4,) * q.n]:
            exact = dilog_series(q, gamma0, cap)
            for prec in (-3, 0, 5, 17):
                fast = dilog_series_truncated(q, gamma0, cap, prec)
                expanded = {
                    g: QTruncSeries.from_qrat(c, prec) for g, c in exact.terms.items()
                }
                assert set(fast.terms) == {g for g, s in expanded.items() if not s.is_zero()}
                for g, series in fast.terms.items():
                    assert series.prec == prec
                    assert series.coeffs == expanded[g].coeffs, (gamma0, cap, prec, g)
                    assert all_int(series.coeffs.values())
                    seen_negative |= min(series.coeffs) < 0
    assert seen_negative == (name == "reversed-a2")
