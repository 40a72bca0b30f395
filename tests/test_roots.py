from itertools import permutations, product

import pytest

from dynkin_coha import modrep
from dynkin_coha.quiver import euler_form, simple_vector
from dynkin_coha.roots import (
    MAX_COORD,
    NoUnitCoordinate,
    admissible_root_order,
    choose_i,
    positive_roots,
)

from conftest import load_quiver


def brute_force_roots(q, bound=MAX_COORD):
    """Independent oracle: plain product-space scan of the bounded box."""
    found = []
    for d in product(range(bound + 1), repeat=q.n):
        if any(d) and euler_form(q, d, d) == 1:
            found.append(d)
    return sorted(found)


# Coxeter numbers give the classical positive-root counts n*h/2.
ROOT_COUNTS = {"A2": 3, "A3": 6, "A4": 10, "A5": 15, "D4": 12, "D5": 20,
               "E6": 36, "E7": 63, "E8": 120}


def test_a2_roots_exact():
    q = load_quiver("a2")
    assert positive_roots(q) == ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_roots_match_brute_force(name):
    q = load_quiver(name)
    assert list(positive_roots(q)) == brute_force_roots(q)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8"])
def test_root_counts(name):
    q = load_quiver(name)
    assert len(positive_roots(q)) == ROOT_COUNTS[q.dynkin_type]


def test_simple_roots_always_present():
    for name in ["a3", "d4", "e6"]:
        q = load_quiver(name)
        roots = set(positive_roots(q))
        for i in range(1, q.n + 1):
            assert simple_vector(q, i) in roots


def test_a2_admissible_order_matches_known():
    q = load_quiver("a2")
    rd = modrep.root_data(q)
    assert rd.roots == ((0, 1), (1, 1), (1, 0))


def test_admissible_order_pairwise_condition_a3():
    q = load_quiver("a3")
    rd = modrep.root_data(q)
    for x in range(rd.count):
        for y in range(x + 1, rd.count):
            assert rd.hom[x][y] == 0
            assert rd.ext[y][x] == 0


def test_admissible_order_is_lex_minimal_a3():
    # brute force over all valid total orders, oracle for the greedy choice
    q = load_quiver("a3")
    base = positive_roots(q)
    reps = [modrep.indecomposable(q, b) for b in base]
    hom = [[modrep.hom_dim(a, b) for b in reps] for a in reps]
    ext = [[modrep.ext_dim(a, b) for b in reps] for a in reps]

    def valid(order):
        for x in range(len(order)):
            for y in range(x + 1, len(order)):
                if hom[order[x]][order[y]] or ext[order[y]][order[x]]:
                    return False
        return True

    best = min(
        (tuple(base[i] for i in order) for order in permutations(range(len(base)))
         if valid(order))
    )
    assert admissible_root_order(q, base, hom, ext) == best


def test_first_root_has_no_incoming_ext():
    for name in ["a2", "a3", "d4"]:
        q = load_quiver(name)
        rd = modrep.root_data(q)
        reps = [modrep.indecomposable(q, b) for b in rd.roots]
        first = reps[0]
        for other in reps:
            assert modrep.ext_dim(other, first) == 0 or other is first


def test_roots_have_dense_orbits():
    for name in ["a3", "d4"]:
        q = load_quiver(name)
        for b in modrep.root_data(q).roots:
            rep = modrep.indecomposable(q, b)
            assert modrep.ext_dim(rep, rep) == 0


def test_corrupted_tables_raise_cyclic(a2):
    from dynkin_coha.roots import CyclicConstraints

    roots = [(1, 0), (0, 1)]
    hom = [[1, 1], [1, 1]]  # mutual nonzero hom forces both orders
    ext = [[0, 0], [0, 0]]
    with pytest.raises(CyclicConstraints):
        admissible_root_order(a2, roots, hom, ext)


def test_choose_i_examples():
    assert choose_i((1, 1)) == 1
    assert choose_i((0, 1)) == 2


def test_choose_i_e8_longest_root():
    q = load_quiver("e8")
    roots = positive_roots(q)
    blocked = [r for r in roots if all(x >= 2 for x in r)]
    assert len(blocked) == 1
    assert sorted(blocked[0]) == [2, 2, 3, 3, 4, 4, 5, 6]
    with pytest.raises(NoUnitCoordinate):
        choose_i(blocked[0])
    for r in roots:
        if r != blocked[0]:
            choose_i(r)
