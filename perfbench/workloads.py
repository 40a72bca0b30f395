"""The four benchmark workloads.

A workload turns a seed into a list of op specs (plain JSON-able dicts, so a
failed op can be printed with its inputs), and turns each spec into an `Op`
bound to one freshly imported copy of the package.  Every op is called
through the package's public functions only; its result is checked after the
timed call, never inside it.

Why these four (see README.md for the full table):

- orbit-classes: the shuffle product and orbit-closure classes, the code
  ROADMAP item 4 replaces; root data is built once per pass in warm-up.
- root-data: Hom/Ext tables by intertwiner kernels, the code ROADMAP item 3
  replaces; it touches no polynomial code.
- residue-products: the Laurent-polynomial side of the polynomial core
  (ROADMAP item 5), which the battery barely exercises.
- verifiers: the `verify-all` battery, the end-to-end run named in ROADMAP.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import types
from dataclasses import dataclass
from typing import Any, Callable

# Dynkin trees on labels 1..n, used by the root-data workload before a seeded
# relabeling and reorientation.
TREES = {
    "D6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),
    "E6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "E7": (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]),
}
ROOT_COUNTS = {"D6": 30, "E6": 36, "E7": 63}


@dataclass
class Op:
    """One timed call and the checks applied to its result afterwards."""

    kind: str
    inputs: dict
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result is correct
    render: Callable[[Any], str]  # printed form; its digest is compared
    corrupt: Callable[[Any], Any]  # a wrong result, for the planted-defect test


@dataclass(frozen=True)
class Package:
    """One import of dynkin_coha: the modules a workload calls."""

    coha: Any
    modrep: Any
    polyblock: Any
    quiver: Any
    residue: Any
    verify: Any
    cli: Any
    roots: Any


# ---------------------------------------------------------------------------
# seeded element specs shared by orbit-classes and residue-products


def _random_weight(rng: random.Random, n: int, total: int) -> list[int]:
    g = [0] * n
    for _ in range(total):
        g[rng.randrange(n)] += 1
    return g


def _partitions(k: int, parts: int, largest: int | None = None):
    """Partitions of k into at most parts parts, largest first.  Kept apart
    from coha.partitions_at_most so that no change to the package can change
    the benchmark's inputs."""
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, parts - 1, first):
            yield (first,) + rest


def _partition_tuples(gamma: list[int], degree: int):
    """Tuples of partitions, one per vertex with at most gamma(i) parts,
    of total size degree."""
    if not gamma:
        if degree == 0:
            yield ()
        return
    for d in range(degree + 1):
        for lam in _partitions(d, gamma[0]):
            for rest in _partition_tuples(gamma[1:], degree - d):
                yield (lam,) + rest


def _dense_terms(rng: random.Random, gamma: list[int], degree: int) -> list:
    """A homogeneous block-symmetric element as (coefficient, partition
    tuple) pairs over the monomial symmetric basis; never empty."""
    basis = list(_partition_tuples(gamma, degree))
    terms = [[rng.choice((-3, -2, -1, 1, 2, 3)), [list(p) for p in lam]]
             for lam in basis if rng.random() < 0.7]
    return terms or [[1, [list(p) for p in basis[0]]]]


def _element(pkg: Package, q, gamma, terms):
    MPoly, w = pkg.polyblock.MPoly, pkg.polyblock.w
    total = MPoly.zero()
    for coeff, lams in terms:
        term = MPoly.const(coeff)
        for i, lam in enumerate(lams, start=1):
            if any(lam):
                slots = [w(i, j) for j in range(1, gamma[i - 1] + 1)]
                term = term * pkg.coha.monomial_symmetric(slots, tuple(x for x in lam if x))
        total = total + term
    return pkg.coha.CohaElement(q, tuple(gamma), total)


# ---------------------------------------------------------------------------
# orbit-classes

ORBIT_LADDER = [
    ("a2", (2, 2)), ("a2", (2, 3)), ("a2", (3, 2)), ("a2", (3, 3)), ("a2", (4, 4)),
    ("a3", (2, 2, 2)), ("a3", (2, 3, 2)),
    ("d4", (2, 2, 2, 2)),
]
# A2 (4,4) orbits whose class takes more than 8 s or does not finish; they
# wait for ROADMAP items 4-5 (README.md, "Excluded rungs").
ORBIT_EXCLUDED = {("a2", (4, 0, 4)), ("a2", (3, 1, 3))}
SHUFFLE_QUIVERS = ("a2", "a3", "d4")
UNIT_PAIRS_PER_QUIVER = 4
DENSE_PAIRS_PER_QUIVER = 4


def orbit_specs(pkg: Package, quivers: dict, seed: int) -> list[dict]:
    rng = random.Random(f"orbit-classes/{seed}")
    orbit_ops = []
    for name, gamma in ORBIT_LADDER:
        for m in pkg.modrep.orbits_for(quivers[name], gamma):
            if (name, m) not in ORBIT_EXCLUDED:
                orbit_ops.append({"kind": "orbit", "quiver": name, "m": list(m),
                                  "size": sum(gamma)})
    pair_ops = []
    for name in SHUFFLE_QUIVERS:
        n = quivers[name].n
        for _ in range(UNIT_PAIRS_PER_QUIVER):
            # unit products with the largest weights: many shuffle terms
            g1 = _random_weight(rng, n, 3)
            g2 = _random_weight(rng, n, 3)
            pair_ops.append({"kind": "unit-shuffle", "quiver": name, "g1": g1, "g2": g2,
                             "f1": [[1, [[] for _ in range(n)]]],
                             "f2": [[1, [[] for _ in range(n)]]], "size": 6})
        for _ in range(DENSE_PAIRS_PER_QUIVER):
            # dense factors on small weights: few terms, large polynomials
            g1 = _random_weight(rng, n, rng.randint(1, 2))
            g2 = _random_weight(rng, n, rng.randint(1, 2))
            f1 = _dense_terms(rng, g1, rng.randint(1, 3))
            f2 = _dense_terms(rng, g2, rng.randint(1, 3))
            pair_ops.append({"kind": "dense-shuffle", "quiver": name, "g1": g1, "g2": g2,
                             "f1": f1, "f2": f2, "size": sum(g1) + sum(g2)})
    rng.shuffle(pair_ops)
    # spread the shuffle pairs evenly through the orbit ladder
    step = len(orbit_ops) / len(pair_ops)
    placed = list(enumerate(orbit_ops))
    placed += [((k + 0.5) * step, op) for k, op in enumerate(pair_ops)]
    return [op for _, op in sorted(placed, key=lambda p: p[0])]


def _orbit_op(pkg: Package, quivers: dict, spec: dict) -> Op:
    coha, modrep = pkg.coha, pkg.modrep
    q = quivers[spec["quiver"]]
    m = tuple(spec["m"])

    def call():
        qp = coha.quiver_polynomial(q, m)
        return qp.poly, coha.restriction(q, m, qp), coha.euler_class_from_weights(q, m)

    def check(result):
        poly, via_restriction, via_weights = result
        if poly.homogeneous_degree() != modrep.codim(q, m):
            return "degree differs from the codimension"
        if not poly.has_integer_coefficients():
            return "fractional coefficient"
        if via_restriction != via_weights:
            return "Euler class routes disagree"
        return None

    def corrupt(result):
        poly, via_restriction, via_weights = result
        return poly, via_restriction + pkg.polyblock.MPoly.one(), via_weights

    return Op("orbit", spec, call, check, lambda r: " | ".join(map(str, r)), corrupt)


def _shuffle_op(pkg: Package, quivers: dict, spec: dict) -> Op:
    coha = pkg.coha
    q = quivers[spec["quiver"]]
    g1, g2 = tuple(spec["g1"]), tuple(spec["g2"])
    f1 = _element(pkg, q, g1, spec["f1"])
    f2 = _element(pkg, q, g2, spec["f2"])
    expected_gamma = tuple(a + b for a, b in zip(g1, g2))
    d1, d2 = f1.poly.homogeneous_degree(), f2.poly.homogeneous_degree()

    def call():
        return coha.shuffle_mul(f1, f2)

    def check(result):
        if result.gamma != expected_gamma:
            return f"weight {result.gamma}, expected {expected_gamma}"
        if not result.poly.has_integer_coefficients():
            return "fractional coefficient"
        if not result.poly.is_zero():
            expected = d1 + d2 - pkg.quiver.euler_form(q, g1, g2)
            if result.poly.homogeneous_degree() != expected:
                return f"degree {result.poly.homogeneous_degree()}, grading law gives {expected}"
        return None

    def corrupt(result):
        return types.SimpleNamespace(gamma=g1, poly=result.poly)

    return Op(spec["kind"], spec, call, check,
              lambda r: f"{r.gamma} {r.poly}", corrupt)


# ---------------------------------------------------------------------------
# root-data

ROOT_DATA_MIX = {"E7": 1, "E6": 4, "D6": 10}


def root_data_specs(pkg: Package, quivers: dict, seed: int) -> list[dict]:
    """Distinct relabeled, reoriented D6/E6/E7 trees; distinct after the
    admissible renumbering too, so every op is a root_data cache miss."""
    rng = random.Random(f"root-data/{seed}")
    seen = set()
    out = []
    for typ, count in ROOT_DATA_MIX.items():
        n, tree = TREES[typ]
        picked = []
        while len(picked) < count:
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            edges = []
            for a, b in tree:
                a, b = labels[a - 1], labels[b - 1]
                edges.append([a, b] if rng.random() < 0.5 else [b, a])
            q, _ = pkg.quiver.validate_dynkin(n, edges)
            if q.edges in seen:
                continue
            seen.add(q.edges)
            picked.append({"kind": typ, "vertices": n, "edges": edges,
                           "size": ROOT_COUNTS[typ]})
        out.extend(picked)
    return out


def _root_data_op(pkg: Package, quivers: dict, spec: dict) -> Op:
    modrep, euler_form = pkg.modrep, pkg.quiver.euler_form
    q, _ = pkg.quiver.validate_dynkin(spec["vertices"], spec["edges"])
    want = ROOT_COUNTS[spec["kind"]]

    def call():
        return modrep.root_data(q)

    def check(rd):
        if len(rd.roots) != want:
            return f"{len(rd.roots)} roots, expected {want}"
        for x, bx in enumerate(rd.roots):
            for y, by in enumerate(rd.roots):
                hom, ext = rd.hom[x][y], rd.ext[x][y]
                if hom - ext != euler_form(q, bx, by):
                    return f"hom - ext differs from the Euler form at {bx}, {by}"
                if min(hom, ext) != 0:
                    return f"hom and ext both nonzero at {bx}, {by}"
        return None

    def corrupt(rd):
        hom = [list(row) for row in rd.hom]
        hom[0][0] += 1
        return dataclasses.replace(rd, hom=tuple(map(tuple, hom)))

    return Op(spec["kind"], spec, call, check,
              lambda rd: f"{q.edges} {rd.roots} {rd.hom} {rd.ext}", corrupt)


# ---------------------------------------------------------------------------
# residue-products

RESIDUE_QUIVERS = ("a3", "d4")
# Bounds on the product weight and the preimage exponents.  Beyond them an
# op costs 0.5-2 s (large blocks make large c-series determinants, large
# exponents deep geometric expansions), 100 times the median op, so a
# handful of such ops would decide a run's op time by seed.
RESIDUE_MAX_BLOCK = 3
RESIDUE_MAX_TOTAL = 4
RESIDUE_MAX_EXPONENT = 2


def _weights(n: int, max_total: int):
    """Nonzero weights on n vertices of total at most max_total."""
    for total in range(1, max_total + 1):
        for cut in itertools.combinations(range(total + n - 1), n - 1):
            bounds = (-1,) + cut + (total + n - 1,)
            yield [bounds[k + 1] - bounds[k] - 1 for k in range(n)]


def residue_specs(pkg: Package, quivers: dict, seed: int) -> list[dict]:
    """Every weight pair within the bounds, once per pass, with right factors
    of degree 0, 1 and 2 in turn; the seed draws the preimage exponents and
    the right factor's coefficients."""
    rng = random.Random(f"residue-products/{seed}")
    out = []
    for name in RESIDUE_QUIVERS:
        n = quivers[name].n
        pairs = [(g1, g2) for g1 in _weights(n, 3) for g2 in _weights(n, 3)
                 if max(map(sum, zip(g1, g2))) <= RESIDUE_MAX_BLOCK
                 and sum(g1) + sum(g2) <= RESIDUE_MAX_TOTAL]
        for index, (g1, g2) in enumerate(pairs):
            exps = []  # preimage monomial: exponents of a[i,s], weakly decreasing in s
            for i in range(1, n + 1):
                prev = RESIDUE_MAX_EXPONENT
                for s in range(1, g1[i - 1] + 1):
                    e = rng.randint(0, prev)
                    prev = e
                    if e:
                        exps.append([i, s, e])
            out.append({"kind": name, "quiver": name, "g1": g1, "g2": g2, "g": exps,
                        "f2": _dense_terms(rng, g2, index % 3),
                        "size": sum(g1) + sum(g2)})
    rng.shuffle(out)
    return out


def _residue_op(pkg: Package, quivers: dict, spec: dict) -> Op:
    residue, coha = pkg.residue, pkg.coha
    q = quivers[spec["quiver"]]
    g1, g2 = tuple(spec["g1"]), tuple(spec["g2"])
    g = residue.LaurentPoly.monomial({residue.a_var(i, s): e for i, s, e in spec["g"]})
    f2 = _element(pkg, q, g2, spec["f2"])

    def call():
        return residue.residue_mul(q, g, f2, g1, g2)

    def check(result):
        f1 = residue.ddelta_transform(q, g1, residue.standard_grouping(g1), g)
        if result.poly != coha.shuffle_mul(f1, f2).poly:
            return "residue product differs from the shuffle product"
        return None

    def corrupt(result):
        return dataclasses.replace(result, poly=result.poly + pkg.polyblock.MPoly.one())

    return Op(spec["kind"], spec, call, check, lambda r: str(r.poly), corrupt)


# ---------------------------------------------------------------------------
# verifiers: the verify-all battery as enumerated in cli._battery, one op per
# entry.  Instance counts are those the battery reports at the commit that
# defined this benchmark; they do not depend on the seed.

BATTERY = [
    ("a2", "worked_products", (), 2),
    ("a2", "reineke", ((3, 3), 20), 1),
    ("a2_rev", "reineke", ((3, 3), 20), 1),
    ("a3", "reineke", ((3, 3, 3), 20), 1),
    ("a3_rev", "reineke", ((3, 3, 3), 20), 1),
    ("a3_source_mid", "reineke", ((3, 3, 3), 20), 1),
    ("a3_sink_mid", "reineke", ((3, 3, 3), 20), 1),
    ("d4", "reineke", ((3, 3, 3, 3), 20), 1),
    ("a2", "betti", (5, 30), 20),
    ("a3", "betti", (5, 30), 55),
    ("d4", "betti", (4, 30), 69),
    ("a3", "codim_lemma", (5,), 119),
    ("d4", "codim_lemma", (5,), 320),
    ("a2", "quiver_polynomials", (5,), 33),
    ("a3", "quiver_polynomials", (5,), 119),
    ("a2", "euler_product_form", (), 1),
    ("a2", "euler_factorization", (25, "seed"), 25),
    ("a3", "euler_factorization", (25, "seed"), 25),
    ("a2", "structure", ((1, 1), 10), 11),
    ("a3", "structure", ((1, 1, 1), 8), 9),
    ("e8", "structure-refusal", (), 1),
    ("a2", "residue", (25, "seed"), 25),
    ("a3", "residue", (25, "seed"), 25),
    ("a2", "engine_properties", (6, "seed"), 6),
    ("a4", "engine_properties", (2, "seed"), 102),
    ("d4", "engine_properties", (2, "seed"), 146),
]


# A seeded entry is one op that runs its verifier on SEED_DRAWS seeds, as if
# with SEED_DRAWS times the trials, and every pass draws new seeds (see
# Workload.reseed).  One seeded call costs up to ten times more on one seed
# than on another, and with one draw these calls sat around the battery's
# median op, so op_p50_ms followed the seed rather than the code.
SEED_DRAWS = 4


def verifier_specs(pkg: Package, quivers: dict, seed: int) -> list[dict]:
    out = []
    for name, check, args, instances in BATTERY:
        seeds = ([seed * SEED_DRAWS + draw for draw in range(SEED_DRAWS)]
                 if "seed" in args else [None])
        out.append({"kind": check, "quiver": name, "args": list(args), "seeds": seeds,
                    "instances": instances, "size": instances * len(seeds)})
    return out


def _verifier_op(pkg: Package, quivers: dict, spec: dict) -> Op:
    verify = pkg.verify
    q = quivers[spec["quiver"]]
    kind = spec["kind"]

    def args_for(seed):
        return [seed if a == "seed" else tuple(a) if isinstance(a, list) else a
                for a in spec["args"]]

    if kind == "structure-refusal":
        def call_one(args):
            try:
                verify.verify_structure(q, (1,) * q.n, 2)
            except pkg.roots.NoUnitCoordinate:
                return verify.VerifyResult("structure-refusal", True, 1)
            return verify.VerifyResult("structure-refusal", False, 1, "not refused")
    elif kind == "engine_properties":
        sweep = spec["quiver"] != "a2"  # as in the battery

        def call_one(args):
            trials, seed = args
            return verify.verify_engine_properties(q, trials, seed, hom_ext_sweep=sweep)
    else:
        def call_one(args):
            # looked up at call time, so that a traced run sees the wrapper
            return getattr(verify, f"verify_{kind}")(q, *args)

    def call():
        return [call_one(args_for(seed)) for seed in spec["seeds"]]

    def check(results):
        for result in results:
            if not result.passed:
                return f"{result.name}: FAIL ({result.counterexample})"
            if result.instances != spec["instances"]:
                return (f"{result.name}: {result.instances} instances, "
                        f"expected {spec['instances']}")
        return None

    def corrupt(results):
        return [dataclasses.replace(results[0], instances=results[0].instances + 1),
                *results[1:]]

    def render(results):
        return " ; ".join(f"{r.name} {r.status()} {r.instances} {r.counterexample} {r.details}"
                          for r in results)

    return Op(kind, spec, call, check, render, corrupt)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    quivers: tuple[str, ...]  # bundled quivers loaded in set-up
    warm: tuple[str, ...]  # quivers whose root data set-up computes
    specs: Callable[[Package, dict, int], list[dict]]
    make_op: Callable[[Package, dict, dict], Op]
    # Each pass derives its own seed from the workload seed and the pass
    # number, so a run averages over more draws of seed-dependent work.
    reseed: bool = False


def _make_orbit_or_shuffle(pkg, quivers, spec):
    return (_orbit_op if spec["kind"] == "orbit" else _shuffle_op)(pkg, quivers, spec)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("orbit-classes", ("a2", "a3", "d4"), ("a2", "a3", "d4"),
                 orbit_specs, _make_orbit_or_shuffle),
        Workload("root-data", ("a3",), ("a3",), root_data_specs, _root_data_op),
        Workload("residue-products", RESIDUE_QUIVERS, (), residue_specs, _residue_op),
        Workload("verifiers",
                 ("a2", "a2_rev", "a3", "a3_rev", "a3_source_mid", "a3_sink_mid",
                  "a4", "d4", "e8"),
                 ("a2", "a2_rev", "a3", "a3_rev", "a3_source_mid", "a3_sink_mid",
                  "a4", "d4"),
                 verifier_specs, _verifier_op, reseed=True),
    ]
}


PASS_SEEDS = 1000  # passes a reseeding run may make before seeds repeat


def setup(pkg: Package, workload: Workload, seed: int,
          pass_index: int) -> tuple[list[dict], list[Op]]:
    """Input generation and warm-up for one import of the package."""
    quivers = {name: pkg.cli.load_quiver(name)[0] for name in workload.quivers}
    for name in workload.warm:
        pkg.modrep.root_data(quivers[name])
    if workload.reseed:
        seed = seed * PASS_SEEDS + pass_index % PASS_SEEDS
    specs = workload.specs(pkg, quivers, seed)
    return specs, [workload.make_op(pkg, quivers, spec) for spec in specs]

