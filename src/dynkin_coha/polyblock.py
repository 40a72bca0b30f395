"""Sparse multivariate polynomials with exact coefficients.

A variable is a (kind, i, j) triple: kind "w" for universal Chern roots
(vertex i, slot j), "u" for the restriction targets (root index i, copy j),
and "a"/"b" for the ordered residue alphabets.  A monomial is a sorted tuple
of (variable, nonzero exponent) pairs; exponents of either sign are allowed,
so the one class `MPoly` carries both the polynomials of the COHA and the
Laurent polynomials of the residue form.  Only this module builds or slices
these tuples; other modules just read their (variable, exponent) pairs.
A polynomial maps monomials to nonzero exact coefficients: plain ints, or
Fractions where a rational coefficient is put in.  Every COHA class has
integer coefficients, so that arithmetic stays in ints and never builds a
Fraction.  The zero polynomial has no terms.

Rendering is canonical (degree-major, then lexicographic on monomials) so
equal polynomials always print identically, e.g. ``w[1,1] - w[2,1]``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple


class NotDivisible(ArithmeticError):
    """Division by a difference of variables left a remainder."""


class Var(NamedTuple):
    kind: str
    i: int
    j: int

    def __str__(self) -> str:
        return f"{self.kind}[{self.i},{self.j}]"


def w(i: int, j: int) -> Var:
    return Var("w", i, j)


def u(i: int, j: int) -> Var:
    return Var("u", i, j)


Mono = tuple[tuple[Var, int], ...]


def exact_coeff(c) -> int | Fraction:
    """An exact coefficient: an int when the value is integral, else a
    Fraction.  The one place that decides the coefficient type of `MPoly`."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        e += d.get(v, 0)
        if e:
            d[v] = e
        else:
            del d[v]
    return tuple(sorted(d.items()))


def _split_adjacent(m: Mono, a: Var, b: Var) -> tuple[Mono, int, int, Mono]:
    """(head, exponent of a, exponent of b, tail) of a monomial, for the
    adjacent slots a = (kind, i, j) and b = (kind, i, j+1).

    No variable sorts between a and b, so head + _adjacent(a, ea, b, eb) +
    tail is sorted for any exponents ea, eb.
    """
    end = pos = bisect_left(m, (a,))
    ea = eb = 0
    if end < len(m) and m[end][0] == a:
        ea = m[end][1]
        end += 1
    if end < len(m) and m[end][0] == b:
        eb = m[end][1]
        end += 1
    return m[:pos], ea, eb, m[end:]


def _adjacent(a: Var, ea: int, b: Var, eb: int) -> Mono:
    return (((a, ea),) if ea else ()) + (((b, eb),) if eb else ())


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class MPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int | Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        c = exact_coeff(c)
        return cls({(): c}) if c else cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls.const(1)

    @classmethod
    def monomial(cls, exps: dict[Var, int], coeff=1) -> "MPoly":
        """coeff * prod v^e over exps; exponents of either sign, zero ones
        dropped."""
        return cls({tuple(sorted((v, e) for v, e in exps.items() if e)): exact_coeff(coeff)})

    @classmethod
    def var(cls, v: Var, exp: int = 1) -> "MPoly":
        return cls({((v, exp),) if exp else (): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MPoly(out)

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = exact_coeff(other)
            return MPoly({m: k * c for m, c in self.terms.items()}) if k else MPoly()
        out: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((_mono_degree(m) for m in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous or
        zero."""
        degs = {_mono_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def exponents(self) -> set[tuple[Var, int]]:
        """Every (variable, exponent) pair that occurs in some monomial."""
        return set().union(*self.terms)

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m}

    def coefficient(self, mono: Mono) -> int | Fraction:
        return self.terms.get(mono, 0)

    def rename(self, mapping: dict[Var, Var]) -> "MPoly":
        """Substitute variables by variables (merging exponents on
        collisions; exponents that cancel drop out)."""
        out: dict[Mono, int | Fraction] = {}
        for m, c in self.terms.items():
            d: dict[Var, int] = {}
            for v, e in m:
                nv = mapping.get(v, v)
                d[nv] = d.get(nv, 0) + e
            key = tuple(sorted((v, e) for v, e in d.items() if e))
            out[key] = out.get(key, 0) + c
        return MPoly(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(), key=lambda item: (-_mono_degree(item[0]), item[0])
        )
        pieces = []
        for m, c in ordered:
            factors = [
                str(v) if e == 1 else f"{v}^{e}" for v, e in m
            ]
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            pieces.append((c < 0, text))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for neg, text in pieces[1:]:
            out += (" - " if neg else " + ") + text
        return out

    __repr__ = __str__


def coefficients_in(p: MPoly, v: Var) -> dict[int, MPoly]:
    """p as a Laurent polynomial in v: each exponent of v that occurs, mapped
    to its coefficient, a polynomial free of v."""
    raw: dict[int, dict[Mono, int | Fraction]] = {}
    for m, c in p.terms.items():
        pos = bisect_left(m, (v,))
        if pos < len(m) and m[pos][0] == v:
            raw.setdefault(m[pos][1], {})[m[:pos] + m[pos + 1:]] = c
        else:
            raw.setdefault(0, {})[m] = c
    return {e: MPoly(d) for e, d in raw.items()}


def exact_div_linear(p: MPoly, a: Var, b: Var) -> MPoly:
    """Exact quotient of p by (a - b); raises NotDivisible on a remainder.

    Synthetic division in the variable a with coefficients in the remaining
    variables: the remainder is the substitution a -> b, so divisibility is
    exactly the vanishing of that substitution.
    """
    if a == b:
        raise ValueError("cannot divide by the zero difference")
    if p.is_zero():
        return MPoly.zero()
    by_exp = coefficients_in(p, a)
    low = min(by_exp)
    bpoly = MPoly.var(b)
    quotient_parts: dict[int, MPoly] = {}
    carry = MPoly.zero()
    for e in range(max(by_exp), low, -1):
        coeff = by_exp.get(e, MPoly.zero()) + carry
        quotient_parts[e - 1] = coeff
        carry = coeff * bpoly
    remainder = by_exp[low] + carry
    if not remainder.is_zero():
        raise NotDivisible(f"{a} - {b} does not divide the polynomial")
    total = MPoly.zero()
    for e, part in quotient_parts.items():
        total = total + part * MPoly.var(a, e)
    return total


def divided_difference(p: MPoly, a: Var, b: Var) -> MPoly:
    """(p - s p) / (a - b), where s swaps the adjacent slots a = (kind, i, j)
    and b = (kind, i, j+1).

    Monomial by monomial: (a^h b^l - a^l b^h) / (a - b) is the sum of
    a^(h-1-t) b^(l+t) over t < h - l, and equal exponents drop out.
    """
    out: dict[Mono, int | Fraction] = {}
    for mono, c in p.terms.items():
        head, h, l, tail = _split_adjacent(mono, a, b)
        if h == l:
            continue
        if h < l:
            h, l, c = l, h, -c
        for t in range(h - l):
            key = head + _adjacent(a, h - 1 - t, b, l + t) + tail
            out[key] = out.get(key, 0) + c
    return MPoly(out)


def symmetrize_check(p: MPoly, kind: str, sizes: Iterable[int]) -> bool:
    """True iff p is invariant under every adjacent swap of same-block
    variables (kind, i, j) <-> (kind, i, j+1), blocks sized by sizes."""
    terms = p.terms
    for i, size in enumerate(sizes, start=1):
        for j in range(1, size):
            a, b = Var(kind, i, j), Var(kind, i, j + 1)
            for m, c in terms.items():
                head, ea, eb, tail = _split_adjacent(m, a, b)
                if ea != eb and terms.get(head + _adjacent(a, eb, b, ea) + tail) != c:
                    return False
    return True
