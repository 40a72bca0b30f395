"""The cohomological Hall algebra of a Dynkin quiver on block-symmetric
polynomials.

An element of weight gamma is a polynomial in Chern roots w[i,j]
(i a vertex, j = 1..gamma(i)) invariant under permuting slots within each
vertex block.  The product is the fixed-point shuffle formula: distribute the
slots of the two factors over the merged alphabet, multiply by arrow-wise
differences, divide by same-vertex differences.  That sum is a divided
difference (Lascoux, CBMS 99): only the identity shuffle term is built, with
f1 on the first gamma1(i) slots of each block and f2 on the rest, and at each
vertex the divided difference of the longest minimal coset representative of
S_n / (S_k x S_(n-k)) is applied to it, k(n-k) exact steps of (P - sP)/(x - y).

On top of the product: orbit-closure classes as ordered products of units,
the block-layout restriction onto an orbit, Euler classes of orbit normal
spaces (both via restriction and via torus weights at the distinguished
point), and the graded rank comparison behind the subalgebra factorization.
Every identity is checked with `require`, which raises `CheckFailed` and,
unlike `assert`, is not removed by `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from . import linalg, modrep
from .polyblock import MPoly, Var, coefficients_in, divided_difference, symmetrize_check, w, u
from .quiver import (  # CheckFailed is re-exported as coha.CheckFailed
    CheckFailed,
    DimVector,
    Quiver,
    check_dim_vector,
    euler_form,
    require,
    vec_add,
    vec_scale,
    zero_vector,
)
from .roots import choose_i, positive_roots


@dataclass(frozen=True)
class CohaElement:
    quiver: Quiver
    gamma: DimVector
    poly: MPoly

    def __post_init__(self):
        gamma = check_dim_vector(self.quiver, self.gamma)
        object.__setattr__(self, "gamma", gamma)
        for v, negative in self.poly.variable_signs().items():
            if v.kind != "w" or not (1 <= v.i <= self.quiver.n) or not (
                1 <= v.j <= gamma[v.i - 1]
            ):
                raise ValueError(f"variable {v} is outside the block signature {gamma}")
            if negative:
                e = min(coefficients_in(self.poly, v))
                raise ValueError(f"negative exponent {e} of {v}: an element is a polynomial")
        require(symmetrize_check(self.poly, "w", gamma), "element is not block-symmetric")

    def degree(self) -> int:
        return self.poly.degree()


def one(q: Quiver, gamma) -> CohaElement:
    """The unit class 1 in the weight-gamma piece."""
    return CohaElement(q, check_dim_vector(q, gamma), MPoly.one())


def _difference_product(pairs) -> MPoly:
    total = MPoly.one()
    for a, b in pairs:
        total = total * (MPoly.var(a) - MPoly.var(b))
    return total


def shuffle_mul(f1: CohaElement, f2: CohaElement) -> CohaElement:
    """Fixed-point shuffle product of two elements (same quiver)."""
    q = f1.quiver
    if f2.quiver != q:
        raise ValueError("elements live on different quivers")
    g1, g2 = f1.gamma, f2.gamma
    gamma = vec_add(g1, g2)

    # the identity shuffle term: f2 moves to the slots after those of f1
    shift = {w(i, j): w(i, g1[i - 1] + j) for i in range(1, q.n + 1)
             for j in range(1, g2[i - 1] + 1)}
    arrow_pairs = [
        (w(h, x), w(t, y))
        for t, h in q.edges
        for x in range(g1[h - 1] + 1, gamma[h - 1] + 1)
        for y in range(1, g1[t - 1] + 1)
    ]
    total = f1.poly * f2.poly.rename(shift) * _difference_product(arrow_pairs)

    # the divided difference of the longest minimal coset representative,
    # k(n-k) steps per vertex
    sign = 1
    for i in range(1, q.n + 1):
        n, k = gamma[i - 1], g1[i - 1]
        sign *= (-1) ** (k * (n - k))
        for r in range(k, 0, -1):
            for j in range(r, r + n - k):
                total = divided_difference(total, w(i, j), w(i, j + 1))
    if sign < 0:
        total = -total

    result = CohaElement(q, gamma, total)
    d1, d2 = f1.poly.homogeneous_degree(), f2.poly.homogeneous_degree()
    if d1 is not None and d2 is not None and not total.is_zero():
        expected = d1 + d2 - euler_form(q, g1, g2)
        require(total.homogeneous_degree() == expected, "grading law violated")
    return result


def multi_mul(q: Quiver, factors) -> CohaElement:
    """Left-to-right iterated shuffle product; the empty product is the unit
    in weight zero."""
    result = one(q, zero_vector(q))
    for f in factors:
        result = shuffle_mul(result, f)
    return result


def quiver_polynomial(q: Quiver, m) -> CohaElement:
    """Equivariant class of the orbit closure named by the multiplicity
    vector: the ordered product of unit classes in weights m_u * beta_u."""
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    factors = [
        one(q, vec_scale(mu, beta)) for mu, beta in zip(m, rd.roots) if mu
    ]
    result = multi_mul(q, factors)
    c = modrep.codim(q, m)
    require(not result.poly.is_zero(), "orbit class vanished")
    require(result.poly.homogeneous_degree() == c, "orbit class degree differs from the codimension")
    require(result.poly.has_integer_coefficients(), "orbit class has fractional coefficients")
    return result


def restriction(q: Quiver, m, f: CohaElement) -> MPoly:
    """Restrict a class onto the orbit named by m: Chern-root slots are sent
    to u[root, copy] variables following the consecutive block layout."""
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    gamma = rd.module_dims(m)
    if f.gamma != gamma:
        raise ValueError(f"element weight {f.gamma} does not match the orbit ({gamma})")
    labels = modrep.vertex_labels(q, m)
    mapping: dict[Var, Var] = {}
    for i in range(1, q.n + 1):
        for j, (ru, rv) in enumerate(labels[i - 1], start=1):
            mapping[w(i, j)] = u(ru, rv)
    image = f.poly.rename(mapping)
    require(
        symmetrize_check(image, "u", [mu for mu in m]),
        "restriction image is not symmetric within copy groups",
    )
    return image


def euler_class_from_weights(q: Quiver, m) -> MPoly:
    """Euler class of the orbit normal space from torus weights at the
    distinguished point.

    The maximal torus of the stabilizer scales each indecomposable summand;
    both the representation space and the symmetry algebra split into weight
    lines, the orbit map is weight-preserving, and the normal space picks up
    the cokernel dimension in every weight.
    """
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    phi = modrep.generic_point(q, m)
    gamma = phi.dims
    labels = modrep.vertex_labels(q, m)

    # coordinates of the representation space, grouped by (row label, column label)
    v_coords: dict[tuple, list[tuple[int, int, int]]] = {}
    for e, (t, h) in enumerate(q.edges):
        for r in range(gamma[h - 1]):
            for c in range(gamma[t - 1]):
                key = (labels[h - 1][r], labels[t - 1][c])
                v_coords.setdefault(key, []).append((e, r, c))
    # coordinates of the symmetry algebra
    g_coords: dict[tuple, list[tuple[int, int, int]]] = {}
    for i in range(1, q.n + 1):
        for r in range(gamma[i - 1]):
            for c in range(gamma[i - 1]):
                key = (labels[i - 1][r], labels[i - 1][c])
                g_coords.setdefault(key, []).append((i, r, c))

    total_normal = 0
    euler = MPoly.one()
    for key, vlist in sorted(v_coords.items()):
        glist = g_coords.get(key, [])
        rows = []
        for (e, r, c) in vlist:
            t, h = q.edges[e]
            row = []
            for (i, gr, gc) in glist:
                entry = 0
                if i == h and gr == r:
                    entry += phi.maps[e][gc][c]
                if i == t and gc == c:
                    entry -= phi.maps[e][r][gr]
                row.append(entry)
            rows.append(row)
        rk = linalg.rank(rows) if glist else 0
        mult = len(vlist) - rk
        (u1, v1), (u2, v2) = key
        if (u1, v1) == (u2, v2):
            require(mult == 0, "zero-weight normal directions should not exist")
            continue
        if mult:
            total_normal += mult
            euler = euler * (MPoly.var(u(u1, v1)) - MPoly.var(u(u2, v2))) ** mult
    require(total_normal == modrep.codim(q, m), "normal weight count is not the codimension")
    return euler


def euler_class(q: Quiver, m) -> MPoly:
    """Euler class of the orbit normal space.

    Computed as the restriction of the orbit-closure class onto its own orbit
    and cross-checked against the torus-weight product; the two routes must
    agree exactly.
    """
    via_restriction = restriction(q, m, quiver_polynomial(q, m))
    via_weights = euler_class_from_weights(q, m)
    require(via_restriction == via_weights, "Euler class routes disagree")
    return via_restriction


def factor_element(q: Quiver, root: DimVector, mult: int, poly: MPoly) -> CohaElement:
    """An element of weight mult*root whose polynomial only involves the
    distinguished-vertex slots w[i(root), 1..mult]."""
    i = choose_i(root)
    allowed = {w(i, j) for j in range(1, mult + 1)}
    if not poly.variables() <= allowed:
        raise ValueError(f"factor must only use slots {sorted(allowed)}")
    return CohaElement(q, vec_scale(mult, root), poly)


def structure_factor_image(q: Quiver, m, factors) -> MPoly:
    """Restriction of the ordered product of one-vertex factors onto the
    orbit, verified against the direct product of the factors (in copy
    variables) with the Euler class."""
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    factors = list(factors)
    if len(factors) != rd.count:
        raise ValueError(f"expected {rd.count} factors")
    elements = []
    direct = MPoly.one()
    for uidx, (mu, beta, f) in enumerate(zip(m, rd.roots, factors), start=1):
        if mu == 0:
            if f.variables():
                raise ValueError("a zero-multiplicity factor must be constant")
            elements.append(CohaElement(q, zero_vector(q), f))
            direct = direct * f
            continue
        elements.append(factor_element(q, beta, mu, f))
        i = choose_i(beta)
        direct = direct * f.rename(
            {w(i, j): u(uidx, j) for j in range(1, mu + 1)}
        )
    image = restriction(q, m, multi_mul(q, elements))
    expected = direct * euler_class(q, m)
    require(image == expected, "factor image does not split off the Euler class")
    return image


def monomial_symmetric(vars_: list[Var], partition: tuple[int, ...]) -> MPoly:
    """Monomial symmetric polynomial of the given shape in the given
    variables."""
    n = len(vars_)
    padded = tuple(partition) + (0,) * (n - len(partition))
    return sum(
        (MPoly.monomial(dict(zip(vars_, perm))) for perm in set(permutations(padded))),
        MPoly.zero(),
    )


def partitions_at_most(k: int, parts: int):
    """Partitions of k into at most the given number of parts, decreasing."""
    if k == 0:
        yield ()
        return
    if parts == 0:
        return

    def rec(remaining, slots, maximum):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(k, parts, k)


def block_symmetric_dimension(gamma: DimVector, degree: int) -> int:
    """Dimension of the degree piece of block-symmetric polynomials: tuples
    of partitions, one per block, with at most gamma(i) parts each."""
    counts = [1] + [0] * degree
    for size in gamma:
        per_block = [
            sum(1 for _ in partitions_at_most(k, size)) for k in range(degree + 1)
        ]
        counts = [
            sum(counts[k - d] * per_block[d] for d in range(k + 1))
            for k in range(degree + 1)
        ]
    return counts[degree]


def _block_canonical_key(pairs, gamma: DimVector):
    """Orbit representative of a monomial, given by its (variable, exponent)
    pairs, under block permutations: the sorted exponent multiset of every
    block."""
    per_vertex: dict[int, list[int]] = {}
    for v, e in pairs:
        per_vertex.setdefault(v.i, []).append(e)
    return tuple(
        tuple(sorted(per_vertex.get(i, []), reverse=True))
        for i in range(1, len(gamma) + 1)
    )


@dataclass(frozen=True)
class StructureRow:
    cohomological_degree: int
    product_count: int
    product_rank: int
    algebra_dimension: int

    @property
    def ok(self) -> bool:
        return self.product_count == self.product_rank == self.algebra_dimension


def structure_rank_check(q: Quiver, gamma, degree_cap: int) -> list[StructureRow]:
    """Graded comparison of the span of ordered one-vertex-factor products
    against the full weight-gamma piece.

    For every polynomial degree k <= degree_cap the number of factor basis
    tuples (over all orbits of gamma), the rank of their product span, and the
    dimension of the degree-k block-symmetric piece are reported; the
    factorization theorem predicts all three agree away from E8.  On an E8
    quiver the unit-coordinate choice fails for the longest root and the
    error propagates before any product is formed.
    """
    gamma = check_dim_vector(q, gamma)
    for beta in positive_roots(q):
        choose_i(beta)  # raises NoUnitCoordinate on the longest E8 root
    rd = modrep.root_data(q)
    orbits = modrep.orbits_for(q, gamma)

    products_by_degree: dict[int, list[MPoly]] = {k: [] for k in range(degree_cap + 1)}
    for m in orbits:
        c = modrep.codim(q, m)
        slots = [
            [w(choose_i(beta), j) for j in range(1, mu + 1)]
            for mu, beta in zip(m, rd.roots)
        ]
        active = [uu for uu, mu in enumerate(m) if mu]

        def degree_tuples(total, remaining):
            if not remaining:
                if total == 0:
                    yield ()
                return
            first, rest = remaining[0], remaining[1:]
            for d in range(total + 1):
                for tail in degree_tuples(total - d, rest):
                    yield (d,) + tail

        for k in range(c, degree_cap + 1):
            for degs in degree_tuples(k - c, active):
                factor_sets = []
                for uu, d in zip(active, degs):
                    factor_sets.append(
                        [
                            monomial_symmetric(slots[uu], lam)
                            for lam in partitions_at_most(d, m[uu])
                        ]
                    )
                for combo in product(*factor_sets):
                    elements = [
                        factor_element(q, rd.roots[uu], m[uu], f)
                        for uu, f in zip(active, combo)
                    ]
                    result = multi_mul(q, elements)
                    products_by_degree[k].append(result.poly)

    rows = []
    for k in range(degree_cap + 1):
        polys = products_by_degree[k]
        keyed = [[(_block_canonical_key(pairs, gamma), coeff) for pairs, coeff in p.items()]
                 for p in polys]
        keys = sorted({key for terms in keyed for key, _ in terms})
        index = {key: idx for idx, key in enumerate(keys)}
        matrix = []
        for terms in keyed:
            row = [0] * len(keys)
            for key, coeff in terms:
                row[index[key]] = coeff
            matrix.append(row)
        rk = linalg.rank(matrix) if matrix else 0
        rows.append(
            StructureRow(
                cohomological_degree=2 * k,
                product_count=len(polys),
                product_rank=rk,
                algebra_dimension=block_symmetric_dimension(gamma, k),
            )
        )
    return rows
