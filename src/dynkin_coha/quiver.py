"""Dynkin quiver data: ADE recognition, the admissible vertex numbering, and
the Euler form and its antisymmetrized companion on dimension vectors.

Vertices are labelled 1..n.  An edge is an ordered pair (tail, head); after
admissible renumbering every edge satisfies head < tail, so vertex 1 is always
a sink.  Dimension vectors are plain tuples of non-negative ints, indexed by
vertex label minus one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class NotATree(ValueError):
    """Underlying graph is not a simple tree (cycle, loop, multi-edge, or
    disconnected input)."""


class NotADE(ValueError):
    """The tree is not one of the simply laced Dynkin shapes."""


class CheckFailed(ArithmeticError):
    """An identity the library checks on its own results did not hold."""


def require(cond: bool, msg: str) -> None:
    """Check a claimed identity; unlike assert, python -O keeps it."""
    if not cond:
        raise CheckFailed(msg)


DimVector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """An oriented ADE tree in admissible numbering (head < tail on every
    edge).  Build instances through validate_dynkin; internal constructions
    (edge reflections) may temporarily violate the numbering convention."""

    n: int
    edges: tuple[tuple[int, int], ...]
    dynkin_type: str

    def tail_set(self, i: int) -> tuple[int, ...]:
        """Vertices with an arrow pointing into i, sorted."""
        return tuple(sorted({t for (t, h) in self.edges if h == i}))


def zero_vector(q: Quiver) -> DimVector:
    return (0,) * q.n


def simple_vector(q: Quiver, i: int) -> DimVector:
    return tuple(1 if v == i else 0 for v in range(1, q.n + 1))


def vec_add(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(k: int, a: DimVector) -> DimVector:
    return tuple(k * x for x in a)


def vec_leq(a: DimVector, b: DimVector) -> bool:
    return all(x <= y for x, y in zip(a, b))


def check_dim_vector(q: Quiver, gamma) -> DimVector:
    g = tuple(int(x) for x in gamma)
    if len(g) != q.n:
        raise ValueError(f"dimension vector has length {len(g)}, expected {q.n}")
    if any(x < 0 for x in g):
        raise ValueError("dimension vector entries must be non-negative")
    return g


def _classify_tree(n: int, pairs: set[frozenset[int]]) -> str:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for p in pairs:
        a, b = sorted(p)
        adj[a].append(b)
        adj[b].append(a)
    degrees = {v: len(ns) for v, ns in adj.items()}
    if max(degrees.values(), default=0) <= 2:
        return f"A{n}"
    branch = [v for v, d in degrees.items() if d >= 3]
    if len(branch) != 1 or degrees[branch[0]] != 3:
        raise NotADE("tree has more than one branch vertex or a vertex of degree > 3")
    b = branch[0]
    arms = []
    for start in adj[b]:
        length = 1
        prev, cur = b, start
        while degrees[cur] == 2:
            nxt = next(w for w in adj[cur] if w != prev)
            prev, cur = cur, nxt
            length += 1
        if degrees[cur] != 1:
            raise NotADE("tree has more than one branch vertex or a vertex of degree > 3")
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise NotADE(f"arm lengths {tuple(arms)} do not match any ADE diagram")


def validate_dynkin(n: int, edges) -> tuple[Quiver, dict[int, int]]:
    """Validate an oriented graph as an ADE quiver and renumber it admissibly.

    Input edges are (tail, head) pairs with 1-based labels.  The returned
    permutation maps original labels to the new ones; the new numbering is the
    lexicographically smallest ordering that places every head before its
    tail, so repeated runs give identical output.
    """
    if n < 1:
        raise NotATree("quiver needs at least one vertex")
    edge_list = [(int(t), int(h)) for (t, h) in edges]
    for t, h in edge_list:
        if not (1 <= t <= n and 1 <= h <= n):
            raise NotATree(f"edge ({t},{h}) uses a label outside 1..{n}")
        if t == h:
            raise NotATree(f"loop at vertex {t}")
    if len(edge_list) != n - 1:
        raise NotATree(f"a tree on {n} vertices has {n - 1} edges, got {len(edge_list)}")
    pairs = {frozenset((t, h)) for t, h in edge_list}
    if len(pairs) != len(edge_list):
        raise NotATree("multiple edges between a pair of vertices")
    # connectivity
    seen = {1}
    frontier = [1]
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for t, h in edge_list:
        adj[t].append(h)
        adj[h].append(t)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != n:
        raise NotATree("graph is disconnected")

    dynkin_type = _classify_tree(n, pairs)

    # Lexicographically smallest topological order of the head-before-tail
    # constraint digraph (Kahn's algorithm with a min-heap on original labels).
    indeg = {v: 0 for v in range(1, n + 1)}
    succ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for t, h in edge_list:
        succ[h].append(t)
        indeg[t] += 1
    heap = [v for v in range(1, n + 1) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    assert len(order) == n, "orientation of a tree cannot have directed cycles"
    perm = {old: new for new, old in enumerate(order, start=1)}
    new_edges = tuple(sorted((perm[t], perm[h]) for t, h in edge_list))
    for t, h in new_edges:
        assert h < t
    return Quiver(n, new_edges, dynkin_type), perm


def euler_form(q: Quiver, g1, g2) -> int:
    """Sum of products over vertices minus sum of tail-head products over
    arrows."""
    a = check_dim_vector(q, g1)
    b = check_dim_vector(q, g2)
    total = sum(x * y for x, y in zip(a, b))
    for t, h in q.edges:
        total -= a[t - 1] * b[h - 1]
    return total


def lambda_form(q: Quiver, g1, g2) -> int:
    """Opposite antisymmetrization of the Euler form."""
    return euler_form(q, g2, g1) - euler_form(q, g1, g2)
