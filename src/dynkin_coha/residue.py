"""Iterated-residue (Jacobi-Trudi) form of the Hall product.

Every vertex i carries a generating sequence c_{i,0}, c_{i,1}, ... defined by
the ratio of the tail-vertex Chern products over the own-vertex Chern
product; a determinant of shifted c's turns an integer tuple into a
block-symmetric polynomial, and the transform extends monomial by monomial to
Laurent polynomials in ordered alphabets a[i,s], b[i,s].

The product formula multiplies a preimage g of the left factor by the right
factor written in the b alphabet, a monomial correction, and geometric
expansions of arrow-wise ratio factors; the transform of the result equals
the shuffle product.  Geometric factors only ever lower the exponent of one
tracked variable, and a determinant with a row of too-negative indices
vanishes, so each expansion has an exact finite depth.  The depth budget is a
guard: exceeding it raises rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .coha import CohaElement
from .polyblock import MPoly, Var, coefficients_in, w
from .quiver import DimVector, Quiver, check_dim_vector, vec_add


class TruncationTooLow(RuntimeError):
    """A geometric expansion needed more depth than the budget allows."""


def a_var(i: int, s: int) -> Var:
    return Var("a", i, s)


def b_var(i: int, s: int) -> Var:
    return Var("b", i, s)


# The residue alphabets live in the same ring as the COHA: `MPoly` carries
# exponents of either sign, and `LaurentPoly` names that class.
LaurentPoly = MPoly


@lru_cache(maxsize=None)
def _c_coefficients(q: Quiver, gamma: DimVector, i: int, order: int) -> tuple[MPoly, ...]:
    """c_{i,0..order}: series coefficients of the tail product over the own
    block product."""
    # numerator: product over tail vertices j of prod_u (1 - w[j,u] x)
    num = [MPoly.one()]
    for j in q.tail_set(i):
        for s in range(1, gamma[j - 1] + 1):
            new = [MPoly.zero()] * (len(num) + 1)
            for k, cpoly in enumerate(num):
                new[k] = new[k] + cpoly
                new[k + 1] = new[k + 1] - cpoly * MPoly.var(w(j, s))
            num = new
    # denominator inverse 1 / prod_u (1 - w[i,u] x): complete homogeneous
    # coefficients, built by folding one geometric series per variable
    own = [MPoly.var(w(i, s)) for s in range(1, gamma[i - 1] + 1)]
    hs = [MPoly.one()] + [MPoly.zero()] * order
    for x in own:
        powers = [MPoly.one()]
        for _ in range(order):
            powers.append(powers[-1] * x)
        new = [MPoly.zero()] * (order + 1)
        for k in range(order + 1):
            for j in range(k + 1):
                new[k] = new[k] + hs[k - j] * powers[j]
        hs = new
    out = []
    for k in range(order + 1):
        acc = MPoly.zero()
        for j in range(min(k, len(num) - 1) + 1):
            acc = acc + num[j] * hs[k - j]
        out.append(acc)
    return tuple(out)


def c_series(q: Quiver, gamma, i: int, max_order: int) -> list[MPoly]:
    """The c coefficients at vertex i up to the requested order (negative
    indices are zero by convention and not listed)."""
    gamma = check_dim_vector(q, gamma)
    return list(_c_coefficients(q, gamma, i, max_order))


def delta_schur(q: Quiver, gamma, i: int, lam) -> MPoly:
    """Determinant det(c_{i, lam_u + v - u}) over u, v = 1..r."""
    return _delta_schur(q, check_dim_vector(q, gamma), i, tuple(int(x) for x in lam))


@lru_cache(maxsize=None)
def _delta_schur(q: Quiver, gamma: DimVector, i: int, lam: tuple[int, ...]) -> MPoly:
    """delta_schur on a checked weight and an int tuple, memoized: the
    transform meets the same (vertex, partition) in many monomials."""
    r = len(lam)
    if r == 0:
        return MPoly.one()
    if any(lam[p] < (p + 1) - r for p in range(r)):
        return MPoly.zero()
    top = max(lam[p] + r - (p + 1) for p in range(r))
    cs = _c_coefficients(q, gamma, i, max(top, 0))

    def entry(uu: int, vv: int) -> MPoly:
        idx = lam[uu] + (vv + 1) - (uu + 1)
        if idx < 0:
            return MPoly.zero()
        return cs[idx]

    total = MPoly.zero()
    for perm in permutations(range(r)):
        sign = 1
        for x in range(r):
            for y in range(x + 1, r):
                if perm[x] > perm[y]:
                    sign = -sign
        prod_ = MPoly.const(sign)
        for uu in range(r):
            prod_ = prod_ * entry(uu, perm[uu])
            if prod_.is_zero():
                break
        total = total + prod_
    return total


Grouping = tuple[tuple[Var, ...], ...]


def standard_grouping(gamma1: DimVector, gamma2: DimVector | None = None) -> Grouping:
    """Ordered alphabets per vertex: the b block of the second factor first
    when a second weight is given, then the a block."""
    out = []
    n = len(gamma1)
    for i in range(1, n + 1):
        seq: list[Var] = []
        if gamma2 is not None:
            seq.extend(b_var(i, s) for s in range(1, gamma2[i - 1] + 1))
        seq.extend(a_var(i, s) for s in range(1, gamma1[i - 1] + 1))
        out.append(tuple(seq))
    return tuple(out)


def ddelta_transform(q: Quiver, gamma, grouping: Grouping, p: MPoly) -> CohaElement:
    """Monomial-by-monomial determinant transform, extended linearly."""
    gamma = check_dim_vector(q, gamma)
    for i in range(q.n):
        if len(grouping[i]) != gamma[i]:
            raise ValueError("grouping sizes must match the weight")
    positions = {v: (i + 1, pos) for i, seq in enumerate(grouping) for pos, v in enumerate(seq)}
    total = MPoly.zero()
    for pairs, coeff in p.items():
        lam_per_vertex = [[0] * gamma[i] for i in range(q.n)]
        ok = True
        for v, e in pairs:
            if v not in positions:
                raise ValueError(f"variable {v} not covered by the grouping")
            i, pos = positions[v]
            lam_per_vertex[i - 1][pos] = e
        factor = MPoly.const(coeff)
        for i in range(1, q.n + 1):
            lam = tuple(lam_per_vertex[i - 1])
            r = len(lam)
            if any(lam[pz] < (pz + 1) - r for pz in range(r)):
                ok = False
                break
            factor = factor * _delta_schur(q, gamma, i, lam)
            if factor.is_zero():
                break
        if ok and not factor.is_zero():
            total = total + factor
    return CohaElement(q, gamma, total)


@dataclass(frozen=True)
class _GeomFactor:
    raised: Var
    lowered: Var
    floor: int  # exponents below this make every determinant row vanish


def default_budget(q: Quiver, g: MPoly, f2: CohaElement,
                   gamma1: DimVector, gamma2: DimVector) -> int:
    gamma = vec_add(gamma1, gamma2)
    dim_v = sum(gamma[t - 1] * gamma[h - 1] for (t, h) in q.edges)
    k_total = 0
    for i in range(1, q.n + 1):
        k_i = sum(gamma1[j - 1] for j in q.tail_set(i)) - gamma1[i - 1]
        k_total += abs(k_i)
    return max(0, g.degree()) + max(0, f2.poly.degree()) + k_total + dim_v


def residue_mul(
    q: Quiver,
    g: MPoly,
    f2: CohaElement,
    gamma1,
    gamma2,
    budget: int | None = None,
) -> CohaElement:
    """Product through the residue formula: transform of
    g * prod_i B_i^{k_i} * f2(B) over the arrow-ratio geometric factors.

    Raises TruncationTooLow if a geometric factor needs more depth than the
    budget (the default budget follows the coarse degree bound and is then
    checked against the exact vanishing floors, so the result is exact).
    """
    gamma1 = check_dim_vector(q, gamma1)
    gamma2 = check_dim_vector(q, gamma2)
    if f2.gamma != gamma2:
        raise ValueError("second factor weight mismatch")
    gamma = vec_add(gamma1, gamma2)
    if budget is None:
        budget = default_budget(q, g, f2, gamma1, gamma2)

    for v in g.variables():
        if v.kind != "a" or not (1 <= v.i <= q.n) or not (1 <= v.j <= gamma1[v.i - 1]):
            raise ValueError(f"preimage may only use a[i,s] with s <= gamma1(i), got {v}")

    base = f2.poly.rename(
        {w(i, j): b_var(i, j) for i in range(1, q.n + 1) for j in range(1, gamma2[i - 1] + 1)}
    )
    correction: dict[Var, int] = {}
    for i in range(1, q.n + 1):
        k_i = sum(gamma1[j - 1] for j in q.tail_set(i)) - gamma1[i - 1]
        for s in range(1, gamma2[i - 1] + 1):
            correction[b_var(i, s)] = k_i
    base = g * base * MPoly.monomial(correction)

    # vanishing floors: variable at position p (1-based) in a block of size r
    # keeps its determinant row alive only while its exponent is >= p - r
    def floor_of(v: Var) -> int:
        r = gamma[v.i - 1]
        pos = v.j if v.kind == "b" else gamma2[v.i - 1] + v.j
        return pos - r

    factors: list[_GeomFactor] = []
    for (t, h) in q.edges:
        for s in range(1, gamma2[t - 1] + 1):
            for sp in range(1, gamma1[h - 1] + 1):
                factors.append(_GeomFactor(b_var(t, s), a_var(h, sp), floor_of(a_var(h, sp))))
    bb = []
    for (t, h) in sorted(q.edges, key=lambda e: e[0]):
        for s in range(1, gamma2[t - 1] + 1):
            for sp in range(1, gamma2[h - 1] + 1):
                bb.append(_GeomFactor(b_var(t, s), b_var(h, sp), floor_of(b_var(h, sp))))
    factors.extend(bb)

    current = base
    for fac in factors:
        out = MPoly.zero()
        need = 0
        for e, part in coefficients_in(current, fac.lowered).items():
            depth = e - fac.floor
            if depth < 0:
                continue  # row already dead; this variable is never raised again
            need = max(need, depth)
            series = sum(
                (MPoly.monomial({fac.lowered: e - k, fac.raised: k}) for k in range(depth + 1)),
                MPoly.zero(),
            )
            out = out + part * series
        if need > budget:
            raise TruncationTooLow(
                f"factor 1/(1 - {fac.raised}/{fac.lowered}) needs depth {need} > budget {budget}"
            )
        current = out

    grouping = standard_grouping(gamma1, gamma2)
    return ddelta_transform(q, gamma, grouping, current)
