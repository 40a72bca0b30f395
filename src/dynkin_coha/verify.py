"""Machine-checkable identity batteries shared by the command line and the
acceptance suite.

Each battery sweeps an explicit instance enumeration, stops at the first
counterexample, and reports how many instances it checked.  All randomized
batteries draw from a seeded generator, so repeated runs are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from . import coha, modrep, qalg, qseries, residue
from .polyblock import MPoly, u, w
from .quiver import Quiver, euler_form
from .roots import choose_i


@dataclass
class VerifyResult:
    name: str
    passed: bool
    instances: int
    counterexample: str | None = None
    details: list[str] = field(default_factory=list)

    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _gamma_range(n: int, max_total: int):
    """All nonzero dimension vectors with entry sum at most max_total."""
    for entries in product(range(max_total + 1), repeat=n):
        if 0 < sum(entries) <= max_total:
            yield entries


def verify_worked_products(q: Quiver) -> VerifyResult:
    """The two rank-one products on the two-vertex quiver."""
    name = "worked-products"
    if q.dynkin_type != "A2":
        return VerifyResult(name, False, 0, "needs an A2 quiver")
    first = coha.shuffle_mul(coha.one(q, (1, 0)), coha.one(q, (0, 1)))
    if first.poly != MPoly.one():
        return VerifyResult(name, False, 1, f"1*1 in weights (1,0),(0,1) gave {first.poly}")
    second = coha.shuffle_mul(coha.one(q, (0, 1)), coha.one(q, (1, 0)))
    expected = MPoly.var(w(1, 1)) - MPoly.var(w(2, 1))
    if second.poly != expected:
        return VerifyResult(name, False, 2, f"opposite order gave {second.poly}")
    return VerifyResult(name, True, 2)


def verify_reineke(q: Quiver, cap, precision: int) -> VerifyResult:
    ok, info = qalg.reineke_identity_check(q, cap, precision)
    counter = None
    if not ok:
        counter = (
            f"normal form {info['gamma']}: one side {info['lhs']}, other side {info['rhs']}"
        )
    return VerifyResult("reineke-dilog", ok, 1, counter)


def verify_betti(q: Quiver, max_total: int, precision: int) -> VerifyResult:
    checked = 0
    for gamma in _gamma_range(q.n, max_total):
        checked += 1
        if not qseries.kazarian_betti_check(q, gamma, precision):
            return VerifyResult(
                "betti-orbit-sum", False, checked, f"gamma={gamma} at precision {precision}"
            )
    return VerifyResult("betti-orbit-sum", True, checked)


def verify_codim_lemma(q: Quiver, max_total: int) -> VerifyResult:
    checked = 0
    for gamma in _gamma_range(q.n, max_total):
        for m in modrep.orbits_for(q, gamma):
            checked += 1
            try:
                ok = qalg.verify_codim_lemma(q, m)
            except coha.CheckFailed as exc:
                return VerifyResult(
                    "codim-normal-form", False, checked, f"orbit m={m} of gamma={gamma}: {exc}"
                )
            if not ok:
                return VerifyResult(
                    "codim-normal-form", False, checked, f"orbit m={m} of gamma={gamma}"
                )
    return VerifyResult("codim-normal-form", True, checked)


def verify_quiver_polynomials(q: Quiver, max_total: int) -> VerifyResult:
    """Orbit-closure classes: homogeneity, integrality, and the Euler-class
    agreement between restriction and normal-space torus weights."""
    checked = 0
    for gamma in _gamma_range(q.n, max_total):
        for m in modrep.orbits_for(q, gamma):
            checked += 1
            try:
                qp = coha.quiver_polynomial(q, m)
                via_restriction = coha.restriction(q, m, qp)
                via_weights = coha.euler_class_from_weights(q, m)
            except coha.CheckFailed as exc:
                return VerifyResult(
                    "orbit-classes", False, checked, f"m={m} of gamma={gamma}: {exc}"
                )
            if via_restriction != via_weights:
                return VerifyResult(
                    "orbit-classes", False, checked,
                    f"m={m}: restriction {via_restriction} vs weights {via_weights}",
                )
    return VerifyResult("orbit-classes", True, checked)


def verify_euler_product_form(q: Quiver) -> VerifyResult:
    """The closed product form of the rank-two Euler class on the two-vertex
    quiver."""
    name = "euler-closed-form"
    if q.dynkin_type != "A2":
        return VerifyResult(name, False, 0, "needs an A2 quiver")
    expected = MPoly.one()
    for v in (1, 2):
        for vp in (1, 2):
            expected = expected * (MPoly.var(u(3, v)) - MPoly.var(u(1, vp)))
    actual = coha.euler_class(q, (2, 2, 2))
    if actual != expected:
        return VerifyResult(name, False, 1, f"got {actual}")
    return VerifyResult(name, True, 1)


def _random_symmetric_factor(rng: random.Random, slots: list, max_degree: int) -> MPoly:
    total = MPoly.zero()
    for deg in range(max_degree + 1):
        for lam in coha.partitions_at_most(deg, len(slots)):
            if rng.random() < 0.6:
                c = rng.randint(-2, 2)
                if c:
                    total = total + coha.monomial_symmetric(slots, lam) * c
    if total.is_zero():
        total = MPoly.one()
    return total


def verify_euler_factorization(q: Quiver, trials: int, seed: int = 7) -> VerifyResult:
    """Random one-vertex factor tuples: restriction of the ordered product
    must split as the plain product of the factors times the Euler class."""
    rng = random.Random(seed)
    rd = modrep.root_data(q)
    gammas = [g for g in _gamma_range(q.n, 4)]
    checked = 0
    while checked < trials:
        gamma = rng.choice(gammas)
        orbits = modrep.orbits_for(q, gamma)
        if not orbits:
            continue
        m = rng.choice(orbits)
        factors = []
        for mu, beta in zip(m, rd.roots):
            if mu == 0:
                factors.append(MPoly.one())
            else:
                slots = [w(choose_i(beta), j) for j in range(1, mu + 1)]
                factors.append(_random_symmetric_factor(rng, slots, 2))
        checked += 1
        try:
            coha.structure_factor_image(q, m, factors)
        except coha.CheckFailed as exc:
            return VerifyResult(
                "euler-factorization", False, checked, f"m={m} of gamma={gamma}: {exc}"
            )
    return VerifyResult("euler-factorization", True, checked)


def verify_structure(q: Quiver, gamma, degree_cap: int) -> VerifyResult:
    # NoUnitCoordinate (an E8 quiver) propagates to the caller by design.
    rows = coha.structure_rank_check(q, gamma, degree_cap)
    details = [
        f"degree {r.cohomological_degree}: products {r.product_count}, "
        f"rank {r.product_rank}, algebra {r.algebra_dimension}"
        for r in rows
    ]
    bad = [r for r in rows if not r.ok]
    if bad:
        r = bad[0]
        return VerifyResult(
            "structure-ranks", False, len(rows),
            f"degree {r.cohomological_degree}: products {r.product_count}, "
            f"rank {r.product_rank}, algebra {r.algebra_dimension}",
            details,
        )
    return VerifyResult("structure-ranks", True, len(rows), None, details)


def verify_residue(q: Quiver, trials: int, seed: int = 11) -> VerifyResult:
    """Random preimages and right factors: the residue product must equal the
    shuffle product, and enlarging the depth budget must change nothing."""
    rng = random.Random(seed)
    small = [g for g in _gamma_range(q.n, 2)]
    checked = 0
    while checked < trials:
        gamma1 = rng.choice(small)
        gamma2 = rng.choice(small)
        exps = {}
        for i in range(1, q.n + 1):
            prev = 3
            for s in range(1, gamma1[i - 1] + 1):
                e = rng.randint(0, prev)
                prev = e
                if e:
                    exps[residue.a_var(i, s)] = e
        g = MPoly.monomial(exps)
        slots_poly = MPoly.one()
        if rng.random() < 0.5:
            i = rng.randint(1, q.n)
            if gamma2[i - 1]:
                slots = [w(i, j) for j in range(1, gamma2[i - 1] + 1)]
                slots_poly = _random_symmetric_factor(rng, slots, 2)
        f2 = coha.CohaElement(q, gamma2, slots_poly)
        f1 = residue.ddelta_transform(
            q, gamma1, residue.standard_grouping(gamma1), g
        )
        checked += 1
        via_residue = residue.residue_mul(q, g, f2, gamma1, gamma2)
        budget = residue.default_budget(q, g, f2, gamma1, gamma2)
        stable = residue.residue_mul(q, g, f2, gamma1, gamma2, budget=budget + 2)
        via_shuffle = coha.shuffle_mul(f1, f2)
        if via_residue.poly != via_shuffle.poly:
            return VerifyResult(
                "residue-shuffle", False, checked,
                f"g={g}, gamma1={gamma1}, gamma2={gamma2}",
            )
        if stable.poly != via_residue.poly:
            return VerifyResult(
                "residue-shuffle", False, checked,
                f"budget sensitivity at g={g}, gamma1={gamma1}, gamma2={gamma2}",
            )
    return VerifyResult("residue-shuffle", True, checked)


def _random_element(rng, q, gamma, max_degree=2) -> coha.CohaElement:
    poly = MPoly.zero()
    for i in range(1, q.n + 1):
        size = gamma[i - 1]
        if not size:
            continue
        slots = [w(i, j) for j in range(1, size + 1)]
        poly = poly + _random_symmetric_factor(rng, slots, rng.randint(0, max_degree))
    if poly.is_zero():
        poly = MPoly.one()
    return coha.CohaElement(q, gamma, poly)


def verify_engine_properties(
    q: Quiver, trials: int, seed: int = 3, hom_ext_sweep: bool = True
) -> VerifyResult:
    """Associativity on random triples, the grading law, block symmetry of
    products, and the closed-form Hom/Ext tables against intertwiner kernels
    over all indecomposable pairs."""
    rng = random.Random(seed)
    checked = 0
    small = [g for g in _gamma_range(q.n, 2)]
    for _ in range(trials):
        g1, g2, g3 = (rng.choice(small) for _ in range(3))
        f1 = _random_element(rng, q, g1)
        f2 = _random_element(rng, q, g2)
        f3 = _random_element(rng, q, g3)
        left = coha.shuffle_mul(coha.shuffle_mul(f1, f2), f3)
        right = coha.shuffle_mul(f1, coha.shuffle_mul(f2, f3))
        checked += 1
        if left.poly != right.poly:
            return VerifyResult(
                "engine-properties", False, checked,
                f"associativity fails at weights {g1},{g2},{g3}",
            )
        # grading and block symmetry are checked inside shuffle_mul; exercise
        # one more product to cover the homogeneous branch
        p = coha.shuffle_mul(coha.one(q, g1), coha.one(q, g2))
        if not p.poly.is_zero() and p.poly.homogeneous_degree() is None:
            return VerifyResult(
                "engine-properties", False, checked, f"unit product inhomogeneous at {g1},{g2}"
            )
    if hom_ext_sweep:
        rd = modrep.root_data(q)
        reps = [modrep.indecomposable(q, beta) for beta in rd.roots]
        for x in range(rd.count):
            for y in range(rd.count):
                checked += 1
                hom = modrep.hom_dim(reps[x], reps[y])
                ext = hom - euler_form(q, rd.roots[x], rd.roots[y])
                if (rd.hom[x][y], rd.ext[x][y]) != (hom, ext):
                    return VerifyResult(
                        "engine-properties", False, checked,
                        f"hom/ext table differs from the intertwiner kernel at roots "
                        f"{rd.roots[x]}, {rd.roots[y]}",
                    )
    return VerifyResult("engine-properties", True, checked)
