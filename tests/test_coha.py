import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from dynkin_coha import coha, modrep
from dynkin_coha.polyblock import MPoly, exact_div_linear, u, w
from dynkin_coha.quiver import euler_form, vec_add, vec_scale
from dynkin_coha.roots import NoUnitCoordinate

from conftest import load_quiver


def _difference_product(pairs) -> MPoly:
    total = MPoly.one()
    for a, b in pairs:
        total = total * (MPoly.var(a) - MPoly.var(b))
    return total


def cleared_denominator_mul(f1, f2) -> MPoly:
    """The shuffle product summed over all prod C(gamma_i, gamma1_i) slot
    assignments: each term is multiplied by the missing part of the full
    per-block difference product, the terms are summed, and the sum is
    divided by every same-block difference.  The reference for the
    divided-difference kernel of coha.shuffle_mul."""
    q = f1.quiver
    g1 = f1.gamma
    gamma = vec_add(g1, f2.gamma)
    total = MPoly.zero()
    per_vertex = [list(combinations(range(1, gamma[i] + 1), g1[i])) for i in range(q.n)]
    for assignment in product(*per_vertex):
        subs1, subs2, pairs, sign = {}, {}, [], 1
        chosen_by_vertex, comp_by_vertex = [], []
        for i, chosen in enumerate(assignment, start=1):
            comp = tuple(j for j in range(1, gamma[i - 1] + 1) if j not in chosen)
            chosen_by_vertex.append(chosen)
            comp_by_vertex.append(comp)
            subs1.update({w(i, pos): w(i, j) for pos, j in enumerate(chosen, start=1)})
            subs2.update({w(i, pos): w(i, j) for pos, j in enumerate(comp, start=1)})
            # the full difference product over the term's denominator: pairs
            # inside the chosen slots and inside the complement, and a sign
            # per split pair whose smaller slot was chosen
            pairs += [(w(i, x), w(i, y)) for x, y in combinations(chosen, 2)]
            pairs += [(w(i, x), w(i, y)) for x, y in combinations(comp, 2)]
            sign *= (-1) ** sum(1 for x in chosen for y in comp if x < y)
        # arrow factor: complement slots at the head against chosen slots at the tail
        pairs += [
            (w(h, x), w(t, y))
            for t, h in q.edges
            for x in comp_by_vertex[h - 1]
            for y in chosen_by_vertex[t - 1]
        ]
        term = f1.poly.rename(subs1) * f2.poly.rename(subs2) * _difference_product(pairs)
        total = total + term * sign
    for i in range(1, q.n + 1):
        for x, y in combinations(range(1, gamma[i - 1] + 1), 2):
            total = exact_div_linear(total, w(i, x), w(i, y))
    return total


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


def test_element_refuses_laurent_monomials(a2):
    with pytest.raises(ValueError, match="negative exponent"):
        coha.CohaElement(a2, (1, 0), MPoly.monomial({w(1, 1): -1}))
    with pytest.raises(ValueError, match="outside the block signature"):
        coha.CohaElement(a2, (1, 0), MPoly.var(w(2, 1)))


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
    # in copy variables times the Euler class (checked inside the call)
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
        coha.structure_factor_image(a3, m, factors)  # raises CheckFailed on a mismatch


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



def _block_symmetric_basis(gamma, degree):
    """Products of monomial symmetric polynomials, one per vertex block, over
    all tuples of partitions of total size degree."""
    basis = [MPoly.one()]
    remaining = [degree]
    for i, size in enumerate(gamma, start=1):
        slots = [w(i, j) for j in range(1, size + 1)]
        grown, left = [], []
        for poly, rest in zip(basis, remaining):
            for d in range(rest + 1):
                for lam in coha.partitions_at_most(d, size):
                    grown.append(poly * coha.monomial_symmetric(slots, lam))
                    left.append(rest - d)
        basis, remaining = grown, left
    return [poly for poly, rest in zip(basis, remaining) if rest == 0]


def _random_element(rng, q, gamma, degree):
    poly = MPoly.zero()
    for b in _block_symmetric_basis(gamma, degree):
        poly = poly + b * rng.randint(-3, 3)
    return coha.CohaElement(q, gamma, poly)


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_shuffle_mul_matches_cleared_denominator_oracle(name):
    q = load_quiver(name)
    rng = random.Random(f"oracle/{name}")
    weights = [g for g in product(range(3), repeat=q.n) if 0 < sum(g) <= 3]
    for _ in range(6):
        g1, g2 = rng.choice(weights), rng.choice(weights)
        unit = coha.shuffle_mul(coha.one(q, g1), coha.one(q, g2))
        assert unit.poly == cleared_denominator_mul(coha.one(q, g1), coha.one(q, g2))
        f1 = _random_element(rng, q, g1, rng.randint(0, 2))
        f2 = _random_element(rng, q, g2, rng.randint(0, 2))
        assert coha.shuffle_mul(f1, f2).poly == cleared_denominator_mul(f1, f2)


@pytest.mark.parametrize("name,orbits", [("a2", [(2, 2, 2)]), ("a3", None)])
def test_orbit_partial_products_match_oracle(name, orbits):
    # every step of the ordered unit products behind the A2 orbit (2,2,2)
    # and all orbits of dimension vector (2,2,2) on A3
    q = load_quiver(name)
    rd = modrep.root_data(q)
    for m in orbits or modrep.orbits_for(q, (2, 2, 2)):
        partial = coha.one(q, (0,) * q.n)
        for mu, beta in zip(m, rd.roots):
            if mu:
                factor = coha.one(q, vec_scale(mu, beta))
                step = coha.shuffle_mul(partial, factor)
                assert step.poly == cleared_denominator_mul(partial, factor)
                partial = step
        assert partial.poly == coha.quiver_polynomial(q, m).poly


PROPERTY_QUIVERS = {name: load_quiver(name) for name in ("a2", "a3")}
PROPERTY_SETTINGS = settings(deadline=None, max_examples=40, derandomize=True)


@st.composite
def factor_tuples(draw, count):
    """count homogeneous elements on A2 or A3 whose merged blocks have at
    most 3 slots."""
    q = PROPERTY_QUIVERS[draw(st.sampled_from(sorted(PROPERTY_QUIVERS)))]
    room = [3] * q.n
    factors = []
    for _ in range(count):
        gamma = tuple(draw(st.integers(0, r)) for r in room)
        room = [r - g for r, g in zip(room, gamma)]
        basis = _block_symmetric_basis(gamma, draw(st.integers(0, 2)))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        poly = MPoly.zero()
        for b, c in zip(basis, coeffs):
            poly = poly + b * c
        factors.append(coha.CohaElement(q, gamma, poly))
    return factors


@PROPERTY_SETTINGS
@given(factor_tuples(2))
def test_shuffle_mul_laws_and_oracle(factors):
    f1, f2 = factors
    q = f1.quiver
    unit = coha.one(q, (0,) * q.n)
    assert coha.shuffle_mul(f1, unit).poly == f1.poly
    assert coha.shuffle_mul(unit, f1).poly == f1.poly
    result = coha.shuffle_mul(f1, f2)
    assert result.poly == cleared_denominator_mul(f1, f2)
    if f1.poly and f2.poly and result.poly:
        assert result.poly.homogeneous_degree() == (
            f1.poly.homogeneous_degree() + f2.poly.homogeneous_degree()
            - euler_form(q, f1.gamma, f2.gamma)
        )


@PROPERTY_SETTINGS
@given(factor_tuples(3))
def test_shuffle_mul_associative(factors):
    f1, f2, f3 = factors
    left = coha.shuffle_mul(coha.shuffle_mul(f1, f2), f3)
    right = coha.shuffle_mul(f1, coha.shuffle_mul(f2, f3))
    assert left.poly == right.poly
