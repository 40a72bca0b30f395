import random
from fractions import Fraction
from itertools import product

import pytest

from dynkin_coha import coha, modrep
from dynkin_coha.polyblock import MPoly, u, w
from dynkin_coha.quiver import euler_form
from dynkin_coha.roots import NoUnitCoordinate

from conftest import load_quiver


def test_worked_products(a2):
    assert coha.shuffle_mul(coha.one(a2, (1, 0)), coha.one(a2, (0, 1))).poly == MPoly.one()
    assert coha.shuffle_mul(coha.one(a2, (0, 1)), coha.one(a2, (1, 0))).poly == \
        MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))


def test_unit_acts_trivially(a2):
    rng = random.Random(21)
    f = coha.CohaElement(
        a2, (1, 1),
        MPoly.var(w(1, 1), 2) + 3 * MPoly.var(w(2, 1)) * MPoly.var(w(1, 1)),
    )
    unit = coha.one(a2, (0, 0))
    assert coha.shuffle_mul(f, unit).poly == f.poly
    assert coha.shuffle_mul(unit, f).poly == f.poly


def test_multi_mul_bracketings_agree(a2):
    factors = [coha.one(a2, (1, 0)), coha.one(a2, (0, 1)), coha.one(a2, (1, 1))]
    left = coha.shuffle_mul(coha.shuffle_mul(factors[0], factors[1]), factors[2])
    right = coha.shuffle_mul(factors[0], coha.shuffle_mul(factors[1], factors[2]))
    assert left.poly == right.poly
    assert coha.multi_mul(a2, factors).poly == left.poly


def test_multi_mul_degenerate_cases(a2):
    empty = coha.multi_mul(a2, [])
    assert empty.gamma == (0, 0) and empty.poly == MPoly.one()
    single = coha.one(a2, (2, 1))
    assert coha.multi_mul(a2, [single]).poly == single.poly


def test_quiver_polynomial_examples(a2):
    assert coha.quiver_polynomial(a2, (1, 0, 1)).poly == \
        MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))
    assert coha.quiver_polynomial(a2, (0, 1, 0)).poly == MPoly.one()


def test_quiver_polynomial_degree_and_integrality(a3):
    for gamma in product(range(3), repeat=3):
        if not (0 < sum(gamma) <= 4):
            continue
        for m in modrep.orbits_for(a3, gamma):
            qp = coha.quiver_polynomial(a3, m)
            assert qp.poly.has_integer_coefficients()
            assert qp.poly.homogeneous_degree() == modrep.codim(a3, m)


def test_restriction_block_table(a2):
    # the (2,2,2) layout sends vertex-1 slots to copies of roots 2, 3 and
    # vertex-2 slots to copies of roots 1, 2
    m = (2, 2, 2)
    pairs = {
        w(1, 1): u(2, 1), w(1, 2): u(2, 2), w(1, 3): u(3, 1), w(1, 4): u(3, 2),
        w(2, 1): u(1, 1), w(2, 2): u(1, 2), w(2, 3): u(2, 1), w(2, 4): u(2, 2),
    }
    gamma = (4, 4)
    for source, target in pairs.items():
        elem = coha.CohaElement(
            a2, gamma,
            sum(
                (MPoly.var(w(source.i, j)) for j in range(1, 5)),
                MPoly.zero(),
            ),
        )
        image = coha.restriction(a2, m, elem)
        collected = image.variables()
        assert target in collected


def test_restriction_of_projection_polynomials(a2):
    # restriction of the full power sums per vertex, checked against the
    # layout table explicitly
    m = (2, 2, 2)
    gamma = (4, 4)
    p1 = sum((MPoly.var(w(1, j), 2) for j in range(1, 5)), MPoly.zero())
    image = coha.restriction(a2, m, coha.CohaElement(a2, gamma, p1))
    expected = (
        MPoly.var(u(2, 1), 2) + MPoly.var(u(2, 2), 2)
        + MPoly.var(u(3, 1), 2) + MPoly.var(u(3, 2), 2)
    )
    assert image == expected


def test_restriction_of_unit_is_unit(a2):
    assert coha.restriction(a2, (1, 0, 1), coha.one(a2, (1, 1))) == MPoly.one()


def test_restriction_of_dense_orbit_class(a2):
    dense = coha.quiver_polynomial(a2, (0, 1, 0))
    assert coha.restriction(a2, (0, 1, 0), dense) == MPoly.one()


def test_euler_class_examples(a2):
    assert coha.euler_class(a2, (0, 1, 0)) == MPoly.one()
    assert coha.euler_class(a2, (1, 0, 1)) == MPoly.var(u(3, 1)) - MPoly.var(u(1, 1))


def test_euler_class_product_form(a2):
    expected = MPoly.one()
    for v in (1, 2):
        for vp in (1, 2):
            expected = expected * (MPoly.var(u(3, v)) - MPoly.var(u(1, vp)))
    assert coha.euler_class(a2, (2, 2, 2)) == expected


@pytest.mark.parametrize("name,max_total", [("a2", 5), ("a3", 4)])
def test_euler_class_routes_agree(name, max_total):
    q = load_quiver(name)
    for gamma in product(range(max_total + 1), repeat=q.n):
        if not (0 < sum(gamma) <= max_total):
            continue
        for m in modrep.orbits_for(q, gamma):
            via_restriction = coha.restriction(q, m, coha.quiver_polynomial(q, m))
            assert via_restriction == coha.euler_class_from_weights(q, m)


def test_structure_factor_image_all_units(a2):
    rd = modrep.root_data(a2)
    m = (1, 0, 1)
    image = coha.structure_factor_image(a2, m, [MPoly.one()] * rd.count)
    assert image == coha.euler_class(a2, m)


def test_structure_factor_image_worked_block(a2):
    # symmetric factors on the (2,2,2) orbit: the image is the plain product
    # in copy variables times the Euler class (asserted inside the call)
    f1 = MPoly.var(w(2, 1)) + MPoly.var(w(2, 2))
    f2 = MPoly.var(w(1, 1)) * MPoly.var(w(1, 2))
    f3 = MPoly.var(w(1, 1), 2) + MPoly.var(w(1, 2), 2)
    image = coha.structure_factor_image(a2, (2, 2, 2), [f1, f2, f3])
    direct = (
        (MPoly.var(u(1, 1)) + MPoly.var(u(1, 2)))
        * (MPoly.var(u(2, 1)) * MPoly.var(u(2, 2)))
        * (MPoly.var(u(3, 1), 2) + MPoly.var(u(3, 2), 2))
        * coha.euler_class(a2, (2, 2, 2))
    )
    assert image == direct


def test_structure_factor_image_random(a3):
    rng = random.Random(31)
    rd = modrep.root_data(a3)
    from dynkin_coha.roots import choose_i
    for _ in range(8):
        gamma = tuple(rng.randint(0, 2) for _ in range(3))
        orbits = modrep.orbits_for(a3, gamma)
        if not orbits:
            continue
        m = rng.choice(orbits)
        factors = []
        for mu, beta in zip(m, rd.roots):
            if mu == 0:
                factors.append(MPoly.one())
                continue
            i = choose_i(beta)
            slots = [w(i, j) for j in range(1, mu + 1)]
            poly = MPoly.one() + sum(
                (MPoly.var(v) for v in slots), MPoly.zero()
            )
            factors.append(poly)
        coha.structure_factor_image(a3, m, factors)  # asserts internally


def test_structure_rank_a2():
    q = load_quiver("a2")
    rows = coha.structure_rank_check(q, (1, 1), 10)
    for k, row in enumerate(rows):
        assert row.cohomological_degree == 2 * k
        assert row.algebra_dimension == k + 1
        assert row.ok


def test_structure_rank_single_simple(a2):
    rows = coha.structure_rank_check(a2, (1, 0), 4)
    assert all(r.ok for r in rows)


def test_structure_rank_a3():
    q = load_quiver("a3")
    rows = coha.structure_rank_check(q, (1, 1, 1), 8)
    assert all(r.ok for r in rows)


def test_structure_rank_d4():
    q = load_quiver("d4")
    rows = coha.structure_rank_check(q, (1, 1, 1, 1), 6)
    assert all(r.ok for r in rows)
    # four singleton blocks: compositions of k into four parts
    for k, row in enumerate(rows):
        assert row.algebra_dimension == (k + 1) * (k + 2) * (k + 3) // 6


def test_structure_rank_e8_refused():
    q = load_quiver("e8")
    with pytest.raises(NoUnitCoordinate):
        coha.structure_rank_check(q, (1,) * 8, 2)


def test_block_symmetric_dimension_closed_form():
    # two singleton blocks: compositions of k into two parts
    for k in range(8):
        assert coha.block_symmetric_dimension((1, 1), k) == k + 1
    # one block of size 2: partitions of k into at most 2 parts
    assert [coha.block_symmetric_dimension((2,), k) for k in range(6)] == \
        [1, 1, 2, 2, 3, 3]


def test_grading_law_random(a3):
    rng = random.Random(41)
    smalls = [g for g in product(range(2), repeat=3) if sum(g) <= 2]
    for _ in range(10):
        g1, g2 = rng.choice(smalls), rng.choice(smalls)
        f1, f2 = coha.one(a3, g1), coha.one(a3, g2)
        p = coha.shuffle_mul(f1, f2)
        if not p.poly.is_zero():
            assert p.poly.homogeneous_degree() == -euler_form(a3, g1, g2)

