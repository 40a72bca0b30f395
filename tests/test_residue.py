import random

import pytest

from dynkin_coha import coha, residue
from dynkin_coha.polyblock import MPoly, w
from dynkin_coha.residue import LaurentPoly, a_var, b_var

from conftest import load_quiver


def test_c_series_single_slot_no_tail(a2):
    # vertex 2 has no arrows in, one slot: plain geometric powers
    cs = residue.c_series(a2, (1, 1), 2, 4)
    for k, c in enumerate(cs):
        assert c == MPoly.var(w(2, 1), k)


def test_c_series_first_coefficients(a2):
    cs = residue.c_series(a2, (1, 1), 1, 1)
    assert cs[0] == MPoly.one()
    assert cs[1] == MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))


def test_c_zero_is_always_one(a3):
    for i in (1, 2, 3):
        assert residue.c_series(a3, (1, 2, 1), i, 0)[0] == MPoly.one()


def test_delta_zero_partition_is_one(a3):
    assert residue.delta_schur(a3, (2, 1, 0), 1, (0, 0)) == MPoly.one()


def test_delta_single_box(a2):
    assert residue.delta_schur(a2, (1, 1), 1, (1,)) == \
        MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))


def test_delta_negative_first_entry_vanishes(a2):
    assert residue.delta_schur(a2, (1, 1), 1, (-2,)) == MPoly.zero()
    assert residue.delta_schur(a2, (2, 0), 1, (-1, -2)) == MPoly.zero()


def test_ddelta_transform_is_linear(a2):
    grouping = residue.standard_grouping((1, 1))
    p1 = LaurentPoly.monomial({a_var(1, 1): 1})
    p2 = LaurentPoly.monomial({a_var(2, 1): 2})
    both = p1 + p2
    t1 = residue.ddelta_transform(a2, (1, 1), grouping, p1)
    t2 = residue.ddelta_transform(a2, (1, 1), grouping, p2)
    t = residue.ddelta_transform(a2, (1, 1), grouping, both)
    assert t.poly == t1.poly + t2.poly


def test_ddelta_constant(a2):
    grouping = residue.standard_grouping((1, 1))
    out = residue.ddelta_transform(a2, (1, 1), grouping, LaurentPoly.one())
    assert out.poly == MPoly.one()


def test_worked_example(a2):
    """Rank-one times rank-one on the two-vertex quiver through the residue
    route."""
    result = residue.residue_mul(a2, LaurentPoly.one(), coha.one(a2, (1, 0)), (0, 1), (1, 0))
    assert result.poly == MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))


def test_trivial_right_factor(a2):
    # with an empty right alphabet the transform sees only the preimage
    g = LaurentPoly.monomial({a_var(1, 1): 1})
    result = residue.residue_mul(a2, g, coha.one(a2, (0, 0)), (1, 1), (0, 0))
    f1 = residue.ddelta_transform(
        a2, (1, 1), residue.standard_grouping((1, 1)), g
    )
    assert result.poly == f1.poly


@pytest.mark.parametrize("name,trials", [("a2", 25), ("a3", 25)])
def test_residue_matches_shuffle_randomized(name, trials):
    q = load_quiver(name)
    rng = random.Random(17)
    small = [
        g for g in
        ((a, b) if q.n == 2 else (a, b, c)
         for a in range(3) for b in range(3) for c in range(3))
        if sum(g) <= 2
    ] if q.n == 3 else [(a, b) for a in range(3) for b in range(3) if a + b <= 2]
    done = 0
    while done < trials:
        gamma1 = rng.choice(small)
        gamma2 = rng.choice(small)
        exps = {}
        for i in range(1, q.n + 1):
            top = 3
            for s in range(1, gamma1[i - 1] + 1):
                e = rng.randint(0, top)
                top = e
                if e:
                    exps[a_var(i, s)] = e
        g = LaurentPoly.monomial(exps)
        f2 = coha.one(q, gamma2)
        f1 = residue.ddelta_transform(q, gamma1, residue.standard_grouping(gamma1), g)
        via_residue = residue.residue_mul(q, g, f2, gamma1, gamma2)
        via_shuffle = coha.shuffle_mul(f1, f2)
        assert via_residue.poly == via_shuffle.poly, (g, gamma1, gamma2)
        done += 1


def test_residue_matches_shuffle_on_branched_quiver(d4):
    # a branch vertex exercises multi-edge tail sets in the c-series
    from dynkin_coha.verify import verify_residue

    result = verify_residue(d4, 10, seed=23)
    assert result.passed, result.counterexample


def test_budget_stability(a2):
    g = LaurentPoly.monomial({a_var(1, 1): 2, a_var(2, 1): 1})
    f2 = coha.one(a2, (1, 1))
    base = residue.residue_mul(a2, g, f2, (1, 1), (1, 1))
    budget = residue.default_budget(a2, g, f2, (1, 1), (1, 1))
    again = residue.residue_mul(a2, g, f2, (1, 1), (1, 1), budget=budget + 2)
    assert base.poly == again.poly


def test_budget_too_low_raises(a2):
    # the arrow factor must lower a[1,1] from exponent 2 down to 0
    g = LaurentPoly.monomial({a_var(1, 1): 2})
    f2 = coha.one(a2, (0, 1))
    with pytest.raises(residue.TruncationTooLow):
        residue.residue_mul(a2, g, f2, (1, 0), (0, 1), budget=0)
    full = residue.residue_mul(a2, g, f2, (1, 0), (0, 1))
    assert full.poly == coha.shuffle_mul(
        residue.ddelta_transform(a2, (1, 0), residue.standard_grouping((1, 0)), g),
        f2,
    ).poly


def test_laurent_poly_arithmetic():
    p = LaurentPoly.monomial({a_var(1, 1): -2})
    q_ = LaurentPoly.monomial({a_var(1, 1): 2})
    assert (p * q_) == LaurentPoly.one()
    s = p + p
    only = list(s.items())
    assert only == [(((a_var(1, 1), -2),), 2)]
