import random
from fractions import Fraction
from itertools import product

import pytest

from dynkin_coha.qseries import (
    QRat,
    QTruncSeries,
    f_rational,
    f_series,
    gl_betti_identity_check,
    kazarian_betti_check,
    kazarian_betti_check_exact,
)

from conftest import load_quiver


def count_partitions_with_parts_up_to(k, n):
    """Recursive partition counter, independent of the series code."""
    if k == 0:
        return 1
    if n == 0:
        return 0
    return sum(
        count_partitions_with_parts_up_to(k - n * copies, n - 1)
        for copies in range(k // n + 1)
    )


def test_f0_is_one():
    s = f_series(0, 10)
    assert s.coefficient_q(0) == 1
    assert all(s.coefficient_q(k) == 0 for k in range(1, 11))


def test_f1_is_geometric():
    s = f_series(1, 10)
    assert all(s.coefficient_q(k) == 1 for k in range(11))


def test_f2_counts_partitions_into_parts_1_2():
    s = f_series(2, 10)
    assert s.coefficient_q(4) == 3
    for k in range(11):
        assert s.coefficient_q(k) == count_partitions_with_parts_up_to(k, 2)


def test_f_rational_matches_series():
    for n in range(5):
        assert f_rational(n).truncated(24).agrees_with(f_series(n, 12), 24)


@pytest.mark.parametrize("n,precision", [(1, 10), (2, 15), (3, 20)])
def test_gl_betti_identity(n, precision):
    assert gl_betti_identity_check(n, precision)


def test_gl_betti_rejects_degenerate():
    with pytest.raises(ValueError):
        gl_betti_identity_check(0, 10)


def test_kazarian_simple_vertex(a2):
    # a single simple root has one dense orbit: both sides are f_1
    assert kazarian_betti_check(a2, (1, 0), 20)
    assert kazarian_betti_check_exact(a2, (0, 1))


def test_kazarian_a2_closed_form(a2):
    # 1/(1-q) + q/(1-q)^2 = 1/(1-q)^2
    assert kazarian_betti_check_exact(a2, (1, 1))
    assert kazarian_betti_check(a2, (1, 1), 30)


def test_kazarian_a3_gamma_111():
    q = load_quiver("a3")
    assert kazarian_betti_check(q, (1, 1, 1), 25)


@pytest.mark.parametrize("name", ["a2", "a2_rev", "a3", "a3_rev",
                                  "a3_source_mid", "a3_sink_mid"])
def test_kazarian_sweep_small(name):
    q = load_quiver(name)
    for gamma in product(range(6), repeat=q.n):
        if 0 < sum(gamma) <= 5:
            assert kazarian_betti_check(q, gamma, 30), gamma


def test_kazarian_d4_sweep(d4):
    for gamma in product(range(5), repeat=4):
        if 0 < sum(gamma) <= 4:
            assert kazarian_betti_check(d4, gamma, 30), gamma


def test_exact_and_truncated_routes_agree(a2):
    for gamma in product(range(4), repeat=2):
        if any(gamma):
            assert kazarian_betti_check_exact(a2, gamma) == kazarian_betti_check(
                a2, gamma, 30
            )


def test_qrat_field_axioms_randomized():
    rng = random.Random(5)

    def rand_poly():
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4)))

    for _ in range(40):
        a = QRat(rand_poly(), (Fraction(1),))
        b = QRat(rand_poly(), (Fraction(1),))
        c = QRat(rand_poly(), (Fraction(1),))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a * b) / b == a


def test_qrat_normalization():
    # (1 - q^2) / (1 - q) reduces to 1 + q, denominator monic
    one_minus_q2 = QRat((Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(-1)))
    one_minus_q = QRat((Fraction(1), Fraction(0), Fraction(-1)))
    ratio = one_minus_q2 / one_minus_q
    assert ratio == QRat((Fraction(1), Fraction(0), Fraction(1)))
    assert ratio.den == (Fraction(1),)


def test_truncation_is_multiplicative():
    rng = random.Random(6)
    for _ in range(20):
        num_a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        num_b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        a = QRat(num_a) / QRat((Fraction(1), Fraction(-1)))
        b = QRat(num_b) / QRat((Fraction(1), Fraction(0), Fraction(-1)))
        prec = 16
        direct = (a * b).truncated(prec)
        stepwise = a.truncated(prec) * b.truncated(prec)
        assert direct.agrees_with(stepwise, min(direct.prec, stepwise.prec))


def test_series_window_is_respected():
    s = QTruncSeries.from_qrat(f_rational(1), 6)
    with pytest.raises(ValueError):
        s.coefficient_q(4)  # s-exponent 8 is outside the window


def test_laurent_expansion_with_negative_valuation():
    # q^(-1) / (1 - q) = s^(-2) + s^0 + s^2 + ...
    x = QRat.q_power(-1) / (QRat.one() - QRat.q_power(1))
    s = x.truncated(6)
    assert s.coeffs[-2] == 1
    assert s.coeffs[0] == 1
    assert s.coeffs[6] == 1


def _unwindowed_product(a, b):
    """Every pair of stored terms, multiplied before the window is applied."""
    prec = min(a.prec + b.valuation(), b.prec + a.valuation())
    out = {}
    for k1, v1 in a.coeffs.items():
        for k2, v2 in b.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return QTruncSeries(out, prec)


def test_windowed_product_matches_unwindowed():
    rng = random.Random(29)
    for _ in range(200):
        a, b = (
            QTruncSeries(
                {rng.randint(-6, 14): rng.choice([-3, -1, 1, 2, Fraction(1, 3)])
                 for _ in range(rng.randint(0, 9))},
                rng.randint(-4, 16),
            )
            for _ in range(2)
        )
        product_ = a * b
        reference = _unwindowed_product(a, b)
        assert product_.prec == reference.prec
        assert product_.coeffs == reference.coeffs
