import json
import random
from fractions import Fraction
from itertools import product

import pytest

from dynkin_coha import linalg, modrep
from dynkin_coha.quiver import euler_form, validate_dynkin
from dynkin_coha.roots import positive_roots

from conftest import QUIVER_DIR, load_quiver


def gamma_range(n, max_total):
    for g in product(range(max_total + 1), repeat=n):
        if 0 < sum(g) <= max_total:
            yield g


def test_indecomposable_interval_a2(a2):
    rep = modrep.indecomposable(a2, (1, 1))
    assert rep.dims == (1, 1)
    assert rep.maps == (((Fraction(1),),),)


def test_indecomposable_simple_has_empty_maps(a2):
    rep = modrep.indecomposable(a2, (1, 0))
    assert rep.dims == (1, 0)
    assert rep.maps[0] == ((),)  # 1 x 0 matrix


def test_indecomposable_e6_highest_root():
    q = load_quiver("e6")
    highest = max(positive_roots(q), key=sum)
    rep = modrep.indecomposable(q, highest)
    # the construction verifies End = 1 and Ext = 0 before returning
    assert rep.dims == highest
    assert modrep.hom_dim(rep, rep) == 1


@pytest.mark.parametrize("name", ["a5", "d5", "e7", "e8"])
def test_indecomposable_all_roots_self_verify(name):
    # construction raises unless End = 1 and Ext = 0, so returning is passing
    q = load_quiver(name)
    for beta in positive_roots(q):
        rep = modrep.indecomposable(q, beta)
        assert rep.dims == beta


def test_indecomposable_rejects_non_roots(a2):
    with pytest.raises(ValueError):
        modrep.indecomposable(a2, (2, 0))


def test_hom_dim_hand_values(a2):
    s1 = modrep.indecomposable(a2, (1, 0))
    s2 = modrep.indecomposable(a2, (0, 1))
    interval = modrep.indecomposable(a2, (1, 1))
    # solved by hand from the single intertwiner equation
    assert modrep.hom_dim(s1, interval) == 1
    assert modrep.hom_dim(interval, s1) == 0
    assert modrep.hom_dim(interval, s2) == 1
    assert modrep.hom_dim(s2, interval) == 0
    assert modrep.hom_dim(s1, s2) == 0
    assert modrep.hom_dim(s2, s1) == 0


def test_ext_hand_values(a2):
    s1 = modrep.indecomposable(a2, (1, 0))
    s2 = modrep.indecomposable(a2, (0, 1))
    interval = modrep.indecomposable(a2, (1, 1))
    assert modrep.ext_dim(s2, s1) == 1
    assert modrep.ext_dim(s1, s2) == 0
    assert modrep.ext_dim(interval, interval) == 0


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4"])
def test_end_is_one_dimensional(name):
    q = load_quiver(name)
    for b in modrep.root_data(q).roots:
        rep = modrep.indecomposable(q, b)
        assert modrep.hom_dim(rep, rep) == 1


def assert_tables_match_kernels(q, pairs):
    # the closed-form tables against the intertwiner-kernel route; ext is
    # ext_dim's formula, which would otherwise solve the same system twice
    rd = modrep.root_data(q)
    for x, y in pairs:
        a = modrep.indecomposable(q, rd.roots[x])
        b = modrep.indecomposable(q, rd.roots[y])
        hom = modrep.hom_dim(a, b)
        assert rd.hom[x][y] == hom
        assert rd.ext[x][y] == hom - euler_form(q, a.dims, b.dims)


BUNDLED = sorted(p.stem for p in QUIVER_DIR.glob("*.json"))


@pytest.mark.parametrize("name", [n for n in BUNDLED if n != "e8"])
def test_euler_form_is_hom_minus_ext(name):
    q = load_quiver(name)
    count = modrep.root_data(q).count
    assert_tables_match_kernels(q, product(range(count), repeat=2))


def test_euler_form_is_hom_minus_ext_e8_sampled():
    q = load_quiver("e8")
    count = modrep.root_data(q).count
    rng = random.Random(5)
    pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(30)]
    assert_tables_match_kernels(q, pairs)


@pytest.mark.parametrize("name,seed", [("d5", 1), ("d5", 2), ("e6", 1), ("e6", 2)])
def test_euler_form_is_hom_minus_ext_reoriented(name, seed):
    data = json.loads((QUIVER_DIR / f"{name}.json").read_text())
    rng = random.Random(seed)
    edges = [e if rng.random() < 0.5 else e[::-1] for e in data["edges"]]
    q, _ = validate_dynkin(data["vertices"], edges)
    count = modrep.root_data(q).count
    assert_tables_match_kernels(q, product(range(count), repeat=2))


def test_root_data_needs_no_linear_algebra(monkeypatch):
    def forbidden(*args):
        raise AssertionError("root data must not solve linear systems")

    monkeypatch.setattr(modrep, "hom_dim", forbidden)
    monkeypatch.setattr(linalg, "rank", forbidden)
    monkeypatch.setattr(modrep, "indecomposable", forbidden)
    q = load_quiver("e8")
    modrep.root_data.cache_clear()
    try:
        assert modrep.root_data(q).count == 120
    finally:
        modrep.root_data.cache_clear()


def test_ext_bilinear_under_direct_sum(a3):
    rd = modrep.root_data(a3)
    rng = random.Random(9)
    for _ in range(10):
        picks = [rng.randrange(rd.count) for _ in range(rng.randint(1, 3))]
        total = modrep.direct_sum(
            a3, [modrep.indecomposable(a3, rd.roots[k]) for k in picks]
        )
        expected = sum(
            rd.ext[x][y] for x in picks for y in picks
        )
        assert modrep.ext_dim(total, total) == expected


def test_orbits_for_examples(a2):
    assert modrep.orbits_for(a2, (1, 1)) == [(0, 1, 0), (1, 0, 1)]
    assert modrep.orbits_for(a2, (0, 0)) == [(0, 0, 0)]
    assert modrep.orbits_for(a2, (2, 1)) == [(0, 1, 1), (1, 0, 2)]


def test_orbits_reconstruct_gamma(d4):
    rd = modrep.root_data(d4)
    for gamma in gamma_range(4, 4):
        for m in modrep.orbits_for(d4, gamma):
            assert rd.module_dims(m) == gamma


def test_codim_examples(a2):
    assert modrep.codim(a2, (0, 1, 0)) == 0
    assert modrep.codim(a2, (1, 0, 1)) == 1
    # a single root with any multiplicity has a dense orbit
    assert modrep.codim(a2, (0, 3, 0)) == 0


def test_stabilizer_dims(a2):
    assert modrep.stabilizer_dims(a2, (1, 0, 1)) == [(1, 1), (3, 1)]
    assert modrep.stabilizer_dims(a2, (0, 0, 0)) == []
    assert modrep.stabilizer_dims(a2, (2, 1, 0)) == [(1, 2), (2, 1)]


def test_generic_point_block_layout(a2):
    phi = modrep.generic_point(a2, (2, 2, 2))
    assert phi.dims == (4, 4)
    m = phi.maps[0]
    # rank-2 map: kernel is the span of the first two basis vectors at the
    # tail vertex, slots 3 and 4 map onto slots 1 and 2
    assert [row[0] for row in m] == [0, 0, 0, 0]
    assert [row[1] for row in m] == [0, 0, 0, 0]
    assert m[0][2] == 1 and m[1][3] == 1
    assert sum(1 for r in range(4) for c in range(4) if m[r][c]) == 2


def test_generic_point_single_root_is_indecomposable(a3):
    rd = modrep.root_data(a3)
    for u in range(rd.count):
        m = tuple(1 if v == u else 0 for v in range(rd.count))
        assert modrep.generic_point(a3, m) == modrep.indecomposable(a3, rd.roots[u])


def test_generic_point_endomorphism_count(a3):
    rd = modrep.root_data(a3)
    rng = random.Random(2)
    for _ in range(8):
        m = tuple(rng.randint(0, 2) for _ in range(rd.count))
        phi = modrep.generic_point(a3, m)
        expected = sum(
            m[x] * m[y] * rd.hom[x][y]
            for x in range(rd.count)
            for y in range(rd.count)
        )
        assert modrep.hom_dim(phi, phi) == expected


@pytest.mark.parametrize("name,max_total", [("a2", 6), ("a3", 6), ("d4", 4)])
def test_codim_plus_orbit_dim_is_total(name, max_total):
    q = load_quiver(name)
    for gamma in gamma_range(q.n, max_total):
        dim_v = sum(gamma[t - 1] * gamma[h - 1] for (t, h) in q.edges)
        dim_g = sum(x * x for x in gamma)
        for m in modrep.orbits_for(q, gamma):
            phi = modrep.generic_point(q, m)
            orbit_dim = dim_g - modrep.hom_dim(phi, phi)
            assert modrep.codim(q, m) + orbit_dim == dim_v


def test_orbit_count_is_finite_and_positive(a3):
    for gamma in gamma_range(3, 4):
        orbits = modrep.orbits_for(a3, gamma)
        assert orbits, f"no orbit decomposition found for {gamma}"
        assert len(set(orbits)) == len(orbits)
