"""Explicit quiver representations and their homological bookkeeping.

A representation assigns a vector space dimension to every vertex and an
exact rational matrix to every edge; the matrix of edge (t, h) has shape
dims[h] x dims[t] and acts from the tail space to the head space.

Indecomposables are built by walking a positive root down to a simple root
through sink reflections (in admissible numbering the vertices 1, 2, ..., n,
cycled, form a sink sequence) and then replaying the walk upwards with source
reflection functors on explicit matrices.  Every construction is verified to
have one-dimensional endomorphism ring and no self-extensions before it is
returned, so the construction certifies itself.

The Hom/Ext tables of the root data come from the Euler form alone.  The
path algebra of a Dynkin quiver is representation-directed: for
indecomposables X and Y at most one of Hom(X, Y) and Ext(X, Y) is nonzero
(Assem-Simson-Skowronski, Elements of the Representation Theory of
Associative Algebras I, ch. IX), so hom = max(<a, b>, 0) and
ext = max(-<a, b>, 0).  Explicit modules are built only where a
distinguished point needs matrices.

hom_dim computes Hom independently, as the kernel dimension of the
intertwiner system psi_head . M_a = N_a . psi_tail over all edges by
fraction-free elimination; the verifiers and tests check the closed-form
tables against it.  Ext is Hom minus the Euler form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .linalg import Matrix
from .quiver import (
    DimVector,
    Quiver,
    check_dim_vector,
    euler_form,
    require,
    simple_vector,
    vec_add,
    vec_scale,
)
from .roots import admissible_root_order, positive_roots


class ConstructionFailed(RuntimeError):
    """Internal error: a constructed module failed its End/Ext verification."""


class NegativeExt(RuntimeError):
    """Internal consistency failure: Hom minus the Euler form came out
    negative."""


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    dims: DimVector
    maps: tuple[Matrix, ...]  # aligned with quiver.edges

    def __post_init__(self):
        assert len(self.maps) == len(self.quiver.edges)
        for (t, h), m in zip(self.quiver.edges, self.maps):
            assert len(m) == self.dims[h - 1]
            assert all(len(row) == self.dims[t - 1] for row in m)


def simple(q: Quiver, i: int) -> Representation:
    dims = simple_vector(q, i)
    maps = tuple(
        linalg.zero_matrix(dims[h - 1], dims[t - 1]) for (t, h) in q.edges
    )
    return Representation(q, dims, maps)


def direct_sum(q: Quiver, reps) -> Representation:
    reps = list(reps)
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(q.n))
    maps = []
    for e, (t, h) in enumerate(q.edges):
        block = [[Fraction(0)] * dims[t - 1] for _ in range(dims[h - 1])]
        roff = coff = 0
        for r in reps:
            sub = r.maps[e]
            for a, row in enumerate(sub):
                for b, x in enumerate(row):
                    block[roff + a][coff + b] = x
            roff += r.dims[h - 1]
            coff += r.dims[t - 1]
        maps.append(tuple(tuple(row) for row in block))
    return Representation(q, dims, tuple(maps))


def _reflect_vector(q: Quiver, d: DimVector, i: int) -> DimVector:
    neighbours = 0
    for t, h in q.edges:
        if t == i:
            neighbours += d[h - 1]
        elif h == i:
            neighbours += d[t - 1]
    out = list(d)
    out[i - 1] = neighbours - d[i - 1]
    return tuple(out)


def _sigma(q: Quiver, i: int) -> Quiver:
    """Reverse all edges at vertex i (keeping edge positions aligned)."""
    edges = tuple((h, t) if t == i or h == i else (t, h) for (t, h) in q.edges)
    return Quiver(q.n, edges, q.dynkin_type)


def _source_reflection(m: Representation, i: int) -> Representation:
    """Apply the source reflection functor at i to an explicit representation.

    The new space at i is the cokernel of the combined outgoing map, with the
    reversed edges acting by inclusion followed by the cokernel projection.
    """
    q = m.quiver
    out_edges = [e for e, (t, _) in enumerate(q.edges) if t == i]
    assert out_edges, "source reflection at an isolated vertex"
    assert all(h != i for (_, h) in q.edges), "vertex is not a source"
    heads = [q.edges[e][1] for e in out_edges]
    p = sum(m.dims[h - 1] for h in heads)
    di = m.dims[i - 1]
    stacked = []
    for e in out_edges:
        stacked.extend(list(row) for row in m.maps[e])
    assert len(stacked) == p

    # Basis of the image inside the stacked target, then a standard-vector
    # complement; the cokernel projection reads off complement coordinates.
    if di == 0 or p == 0:
        image_basis: list[tuple[Fraction, ...]] = []
    else:
        echelon, _ = linalg.rref(linalg.transpose(tuple(map(tuple, stacked))))
        image_basis = [row for row in echelon if any(row)]
    r = len(image_basis)
    _, pivots = linalg.rref(image_basis) if image_basis else ((), ())
    complement = [j for j in range(p) if j not in pivots]
    assert len(complement) == p - r
    cols = [list(b) for b in image_basis] + [
        [Fraction(1 if k == j else 0) for k in range(p)] for j in complement
    ]
    if p:
        change = linalg.inverse(linalg.transpose(tuple(map(tuple, cols))))
        proj = change[r:]
    else:
        proj = ()

    new_dims = list(m.dims)
    new_dims[i - 1] = p - r
    new_maps = list(m.maps)
    offset = 0
    for e, h in zip(out_edges, heads):
        dh = m.dims[h - 1]
        new_maps[e] = tuple(
            tuple(row[offset + c] for c in range(dh)) for row in proj
        )
        offset += dh
    return Representation(_sigma(q, i), tuple(new_dims), tuple(new_maps))


@lru_cache(maxsize=None)
def indecomposable(q: Quiver, beta: DimVector) -> Representation:
    """The indecomposable representation with dimension vector beta.

    beta must be a positive root.  The result is verified: End is
    one-dimensional, so self-Ext = End - <beta, beta> = 1 - 1 vanishes.
    """
    beta = check_dim_vector(q, beta)
    if euler_form(q, beta, beta) != 1:
        raise ValueError(f"{beta} is not a positive root")

    reflections = []
    quivers = [q]
    cur = beta
    step = 0
    while sum(cur) > 1:
        i = step % q.n + 1
        nxt = _reflect_vector(quivers[-1], cur, i)
        assert all(x >= 0 for x in nxt)
        reflections.append(i)
        quivers.append(_sigma(quivers[-1], i))
        cur = nxt
        step += 1
        if step > 64 * q.n:
            raise ConstructionFailed(f"reflection walk for {beta} did not terminate")

    j = cur.index(1) + 1
    rep = simple(quivers[-1], j)
    for k in range(len(reflections) - 1, -1, -1):
        rep = _source_reflection(rep, reflections[k])
        assert rep.quiver == quivers[k]
    if rep.dims != beta:
        raise ConstructionFailed(f"built dimension {rep.dims}, expected {beta}")
    if hom_dim(rep, rep) != 1:
        raise ConstructionFailed(f"verification failed for root {beta}")
    return rep


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of the space of module maps m -> n (exact kernel rank)."""
    q = m.quiver
    if n.quiver != q:
        raise ValueError("representations live on different quivers")
    offsets = []
    total = 0
    for i in range(q.n):
        offsets.append(total)
        total += n.dims[i] * m.dims[i]
    if total == 0:
        return 0

    def var(i0: int, r: int, c: int) -> int:
        # psi at vertex index i0 has shape n.dims[i0] x m.dims[i0]
        return offsets[i0] + r * m.dims[i0] + c

    rows = []
    for e, (t, h) in enumerate(q.edges):
        a = m.maps[e]  # m.dims[h] x m.dims[t]
        b = n.maps[e]  # n.dims[h] x n.dims[t]
        t0, h0 = t - 1, h - 1
        for r in range(n.dims[h0]):
            for s in range(m.dims[t0]):
                row = [Fraction(0)] * total
                for c in range(m.dims[h0]):
                    row[var(h0, r, c)] += a[c][s]
                for c in range(n.dims[t0]):
                    row[var(t0, c, s)] -= b[r][c]
                if any(row):
                    rows.append(row)
    return total - linalg.rank(rows)


def ext_dim(m: Representation, n: Representation) -> int:
    value = hom_dim(m, n) - euler_form(m.quiver, m.dims, n.dims)
    if value < 0:
        raise NegativeExt(f"ext came out {value} for {m.dims} -> {n.dims}")
    return value


@dataclass(frozen=True)
class RootData:
    """Positive roots in admissible order with the pairwise hom/ext tables of
    their indecomposables."""

    quiver: Quiver
    roots: tuple[DimVector, ...]
    hom: tuple[tuple[int, ...], ...]
    ext: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.roots)

    def module_dims(self, m) -> DimVector:
        gamma = (0,) * self.quiver.n
        for mu, beta in zip(m, self.roots):
            gamma = vec_add(gamma, vec_scale(mu, beta))
        return gamma


@lru_cache(maxsize=None)
def root_data(q: Quiver) -> RootData:
    base = positive_roots(q)
    chi = [[euler_form(q, a, b) for b in base] for a in base]
    hom = [[max(c, 0) for c in row] for row in chi]
    ext = [[max(-c, 0) for c in row] for row in chi]
    ordered = admissible_root_order(q, base, hom, ext)
    index = {b: k for k, b in enumerate(base)}
    pos = [index[b] for b in ordered]
    return RootData(
        quiver=q,
        roots=tuple(ordered),
        hom=tuple(tuple(hom[x][y] for y in pos) for x in pos),
        ext=tuple(tuple(ext[x][y] for y in pos) for x in pos),
    )


def check_module_type(rd: RootData, m) -> tuple[int, ...]:
    mt = tuple(int(x) for x in m)
    if len(mt) != rd.count:
        raise ValueError(f"module type has length {len(mt)}, expected {rd.count}")
    if any(x < 0 for x in mt):
        raise ValueError("multiplicities must be non-negative")
    return mt


def orbits_for(q: Quiver, gamma) -> list[tuple[int, ...]]:
    """All multiplicity vectors whose weighted root sum is gamma, in
    lexicographically increasing order."""
    rd = root_data(q)
    gamma = check_dim_vector(q, gamma)
    nroots = rd.count
    # which vertices can still receive contributions from roots u..N-1
    suffix_support = [[False] * q.n for _ in range(nroots + 1)]
    for u in range(nroots - 1, -1, -1):
        for i in range(q.n):
            suffix_support[u][i] = suffix_support[u + 1][i] or rd.roots[u][i] > 0

    out: list[tuple[int, ...]] = []
    current = [0] * nroots

    def place(u: int, remaining: DimVector) -> None:
        if u == nroots:
            if not any(remaining):
                out.append(tuple(current))
            return
        if any(r > 0 and not suffix_support[u][i] for i, r in enumerate(remaining)):
            return
        beta = rd.roots[u]
        cap = min(
            (remaining[i] // beta[i] for i in range(q.n) if beta[i]), default=0
        )
        for mu in range(cap + 1):
            current[u] = mu
            place(u + 1, tuple(r - mu * b for r, b in zip(remaining, beta)))
        current[u] = 0

    place(0, gamma)
    return out


def codim(q: Quiver, m) -> int:
    """Complex codimension of the orbit named by the multiplicity vector.

    Computed both from the ext table and from the Euler form over ordered
    pairs; the two must agree (the admissible order kills one side of each
    pair).
    """
    rd = root_data(q)
    m = check_module_type(rd, m)
    by_ext = 0
    by_chi = 0
    for u in range(rd.count):
        if not m[u]:
            continue
        for v in range(u + 1, rd.count):
            if not m[v]:
                continue
            by_ext += m[u] * m[v] * rd.ext[u][v]
            by_chi -= m[u] * m[v] * euler_form(q, rd.roots[u], rd.roots[v])
    require(by_ext == by_chi, "admissible order violated in codimension formulas")
    return by_ext


def stabilizer_dims(q: Quiver, m) -> list[tuple[int, int]]:
    """Unitary factors of the orbit stabilizer, as (root index, multiplicity)
    pairs with 1-based root indices into the admissible order."""
    rd = root_data(q)
    m = check_module_type(rd, m)
    return [(u + 1, mu) for u, mu in enumerate(m) if mu]


def vertex_labels(q: Quiver, m) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Block layout of the orbit's distinguished point.

    For each vertex the slots 1..gamma(i) are partitioned into consecutive
    runs, one run of length d_u(i) for every copy (u, v) of every
    indecomposable, in increasing (u, v) order.  Entry j-1 of the i-th tuple
    is the (u, v) label of slot j (1-based u and v).
    """
    rd = root_data(q)
    m = check_module_type(rd, m)
    labels = []
    for i in range(q.n):
        slots: list[tuple[int, int]] = []
        for u, mu in enumerate(m):
            d = rd.roots[u][i]
            for v in range(1, mu + 1):
                slots.extend([(u + 1, v)] * d)
        labels.append(tuple(slots))
    return tuple(labels)


def generic_point(q: Quiver, m) -> Representation:
    """Block-diagonal direct sum of the named indecomposables, laid out in
    the consecutive-run basis of vertex_labels."""
    rd = root_data(q)
    m = check_module_type(rd, m)
    gamma = rd.module_dims(m)

    # slot ranges per (vertex, u, v)
    starts: list[dict[tuple[int, int], int]] = []
    for i in range(q.n):
        pos = 0
        table = {}
        for u, mu in enumerate(m):
            d = rd.roots[u][i]
            for v in range(1, mu + 1):
                table[(u + 1, v)] = pos
                pos += d
        starts.append(table)

    maps = []
    for e, (t, h) in enumerate(q.edges):
        block = [[Fraction(0)] * gamma[t - 1] for _ in range(gamma[h - 1])]
        for u, mu in enumerate(m):
            if not mu:
                continue
            sub = indecomposable(q, rd.roots[u]).maps[e]
            for v in range(1, mu + 1):
                r0 = starts[h - 1][(u + 1, v)]
                c0 = starts[t - 1][(u + 1, v)]
                for a, row in enumerate(sub):
                    for b, x in enumerate(row):
                        block[r0 + a][c0 + b] = x
        maps.append(tuple(tuple(row) for row in block))
    return Representation(q, gamma, tuple(maps))
