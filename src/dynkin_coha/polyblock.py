"""Sparse multivariate polynomials with exact coefficients.

A variable is a (kind, i, j) triple: kind "w" for universal Chern roots
(vertex i, slot j), "u" for the restriction targets (root index i, copy j),
and "a"/"b" for the ordered residue alphabets.  Exponents of either sign are
allowed, so the one class `MPoly` carries both the polynomials of the COHA
and the Laurent polynomials of the residue form.  A polynomial maps monomials
to nonzero exact coefficients: plain ints, or Fractions where a rational
coefficient is put in.  Every COHA class has integer coefficients, so that
arithmetic stays in ints and never builds a Fraction.  The zero polynomial
has no terms.

Monomial layout: packed exponent vectors (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A monomial is one Python int.  Each variable gets a bit field of
FIELD_BITS bits the first time it is seen, from a process-wide interning
table; field 0 is reserved for the total degree.  unit(v) sets the field of
v and field 0 to 1, and the monomial prod v^e is the int sum e * unit(v).
Every field holds a balanced digit (a signed value in
[-2^(FIELD_BITS-1), 2^(FIELD_BITS-1))), so one encoding serves exponents of
both signs.  Hence:

- the product of two monomials is the sum of their ints;
- the total degree is the digit of field 0;
- moving the exponent of a onto b adds a multiple of unit(b) - unit(a), so a
  divided difference steps by unit(b) - unit(a), and a swap of two slots, a
  rename or a split by one variable read one field with a shift and a mask.

A digit that left its field would carry into the next one and corrupt a
result without any error.  So every MPoly carries `bound`, an upper bound on
sum |e| over each of its monomials: `+` and `rename` keep the larger bound,
`*` adds the bounds, and a divided difference adds 1.  A bound above
MAX_EXPONENT is refused with `require` (a CheckFailed, which python -O
keeps) before any term is built.

Only this module knows the layout.  Other modules read (variable, exponent)
pairs through `MPoly.items()` and `MPoly.variable_signs()`.  Rendering
decodes every monomial and is canonical (degree-major, then lexicographic on
the sorted (variable, exponent) pairs), so it does not depend on the order in
which variables were interned, e.g. ``w[1,1] - w[2,1]``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .quiver import require


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


FIELD_BITS = 16
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1
# The largest sum |e| a monomial may reach; a larger bound raises CheckFailed.
MAX_EXPONENT = _HALF - 1


class _Field(NamedTuple):
    shift: int  # bit offset of the variable's field
    bias: int  # _HALF in this field and in every field below it
    unit: int  # 1 in this field and in the total-degree field


_VARS: list[Var] = []  # _VARS[k] owns field k + 1
_FIELDS: dict[Var, _Field] = {}
_all_bias = _HALF  # _HALF in every field in use; also the mask of their sign bits
_BY_RANK: list[Var] = []  # the interned variables, sorted
_RANK: list[int] = []  # _RANK[k]: the place of _VARS[k] in _BY_RANK


def _field(v: Var) -> _Field:
    """The field of v, allocated on first sight."""
    f = _FIELDS.get(v)
    if f is None:
        global _all_bias
        v = Var(*v)
        shift = FIELD_BITS * (len(_VARS) + 1)
        _all_bias |= _HALF << shift
        f = _FIELDS[v] = _Field(shift, _all_bias, (1 << shift) | 1)
        _VARS.append(v)
        _BY_RANK[:] = sorted(_VARS)
        rank = {x: r for r, x in enumerate(_BY_RANK)}
        _RANK[:] = [rank[x] for x in _VARS]
    return f


def _checked(bound: int) -> int:
    require(
        bound <= MAX_EXPONENT,
        f"monomials may reach exponent sum {bound}; a packed field holds at most {MAX_EXPONENT}",
    )
    return bound


def _encode(pairs: Iterable[tuple[Var, int]]) -> tuple[int, int]:
    """(packed monomial, sum |e|) of (variable, exponent) pairs."""
    mono = size = 0
    for v, e in pairs:
        mono += e * _field(v).unit
        size += abs(e)
    return mono, size


def _ranked(mono: int) -> list[tuple[int, int]]:
    """(rank of the variable, exponent) for every nonzero field of a packed
    monomial, in variable order; int pairs sort faster than Var pairs."""
    pairs = []
    d = ((mono + _HALF) & _MASK) - _HALF
    mono = (mono - d) >> FIELD_BITS  # drop the total degree
    for r in _RANK:
        if not mono:
            break
        d = ((mono + _HALF) & _MASK) - _HALF
        if d:
            pairs.append((r, d))
        mono = (mono - d) >> FIELD_BITS
    pairs.sort()
    return pairs


def _decode(mono: int) -> tuple[tuple[Var, int], ...]:
    """The sorted (variable, nonzero exponent) pairs of a packed monomial."""
    return tuple([(_BY_RANK[r], e) for r, e in _ranked(mono)])


def exact_coeff(c) -> int | Fraction:
    """An exact coefficient: an int when the value is integral, else a
    Fraction.  The one place that decides the coefficient type of `MPoly`."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MPoly:
    __slots__ = ("terms", "bound")

    def __init__(self, terms: dict[int, int | Fraction] | None = None, bound: int = 0):
        """terms maps packed monomials to coefficients (zero ones are
        dropped) and is kept, not copied; bound is an upper bound on sum |e|
        over each monomial."""
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        self.terms = terms
        self.bound = bound if terms else 0

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        c = exact_coeff(c)
        return cls({0: c}) if c else cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls.const(1)

    @classmethod
    def monomial(cls, exps: dict[Var, int], coeff=1) -> "MPoly":
        """coeff * prod v^e over exps; exponents of either sign, zero ones
        dropped."""
        mono, size = _encode(exps.items())
        return cls({mono: exact_coeff(coeff)}, _checked(size))

    @classmethod
    def var(cls, v: Var, exp: int = 1) -> "MPoly":
        return cls({exp * _field(v).unit: 1}, _checked(abs(exp)))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c
        return MPoly(out, max(self.bound, other.bound))

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.terms.items()}, self.bound)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = exact_coeff(other)
            return MPoly({m: k * c for m, c in self.terms.items()}, self.bound) if k else MPoly()
        bound = _checked(self.bound + other.bound)
        out: dict[int, int | Fraction] = {}
        get = out.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return MPoly(out, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        _checked(n * self.bound)
        result = MPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((((m + _HALF) & _MASK) - _HALF for m in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous or
        zero."""
        degs = {((m + _HALF) & _MASK) - _HALF for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def items(self) -> Iterator[tuple[tuple[tuple[Var, int], ...], int | Fraction]]:
        """(sorted (variable, exponent) pairs, coefficient) for every term,
        in no particular order."""
        return ((_decode(m), c) for m, c in self.terms.items())

    def variable_signs(self) -> dict[Var, bool]:
        """Every variable that occurs, mapped to whether some monomial holds
        a negative power of it; one pass over the terms."""
        bias = _all_bias
        occupied = negative = 0
        for m in self.terms:
            x = m + bias  # every field now holds its digit + _HALF, no borrows
            occupied |= x ^ bias
            negative |= bias & ~x
        out = {}
        occupied >>= FIELD_BITS
        negative >>= FIELD_BITS
        for v in _VARS:
            if not occupied:
                break
            if occupied & _MASK:
                out[v] = bool(negative & _HALF)
            occupied >>= FIELD_BITS
            negative >>= FIELD_BITS
        return out

    def variables(self) -> set[Var]:
        return set(self.variable_signs())

    def coefficient(self, pairs: Iterable[tuple[Var, int]]) -> int | Fraction:
        """The coefficient of the monomial with these (variable, exponent)
        pairs."""
        return self.terms.get(_encode(pairs)[0], 0)

    def rename(self, mapping: dict[Var, Var]) -> "MPoly":
        """Substitute variables by variables (merging exponents on
        collisions; exponents that cancel drop out)."""
        moves = []
        for a, b in mapping.items():
            fa = _FIELDS.get(a)
            if fa is not None and a != b:  # a variable never seen occurs nowhere
                moves.append((fa.shift, fa.bias, _field(b).unit - fa.unit))
        out: dict[int, int | Fraction] = {}
        get = out.get
        for m, c in self.terms.items():
            key = m
            for shift, bias, delta in moves:  # every digit is read from m itself
                e = (((m + bias) >> shift) & _MASK) - _HALF
                if e:
                    key += e * delta
            out[key] = get(key, 0) + c
        return MPoly(out, self.bound)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [str(v) for v in _BY_RANK]
        ordered = sorted(
            (-(((m + _HALF) & _MASK) - _HALF), _ranked(m), c) for m, c in self.terms.items()
        )
        pieces = []
        for _, pairs, c in ordered:
            factors = [
                names[r] if e == 1 else f"{names[r]}^{e}" for r, e in pairs
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
    shift, bias, unit = _field(v)
    raw: dict[int, dict[int, int | Fraction]] = {}
    for m, c in p.terms.items():
        e = (((m + bias) >> shift) & _MASK) - _HALF
        part = raw.get(e)
        if part is None:
            part = raw[e] = {}
        part[m - e * unit] = c
    return {e: MPoly(d, p.bound) for e, d in raw.items()}


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
    bound = _checked(p.bound + 1)
    shift_a, bias_a, unit_a = _field(a)
    shift_b, bias_b, unit_b = _field(b)
    step = unit_b - unit_a
    out: dict[int, int | Fraction] = {}
    get = out.get
    for m, c in p.terms.items():
        h = (((m + bias_a) >> shift_a) & _MASK) - _HALF
        l = (((m + bias_b) >> shift_b) & _MASK) - _HALF
        if h == l:
            continue
        if h > l:
            key = m - unit_a  # a^(h-1) b^l
        else:  # m is a^l b^h: start from a^(h-1) b^l with the opposite sign
            h, l, c = l, h, -c
            key = m + (h - 1 - l) * unit_a - (h - l) * unit_b
        for _ in range(h - l):
            out[key] = get(key, 0) + c
            key += step
    return MPoly(out, bound)


def symmetrize_check(p: MPoly, kind: str, sizes: Iterable[int]) -> bool:
    """True iff p is invariant under every adjacent swap of same-block
    variables (kind, i, j) <-> (kind, i, j+1), blocks sized by sizes."""
    terms = p.terms
    get = terms.get
    for i, size in enumerate(sizes, start=1):
        for j in range(1, size):
            a, b = Var(kind, i, j), Var(kind, i, j + 1)
            if a not in _FIELDS and b not in _FIELDS:
                continue  # neither occurs anywhere
            shift_a, bias_a, unit_a = _field(a)
            shift_b, bias_b, unit_b = _field(b)
            swap = unit_a - unit_b
            for m, c in terms.items():
                ea = (((m + bias_a) >> shift_a) & _MASK) - _HALF
                eb = (((m + bias_b) >> shift_b) & _MASK) - _HALF
                if ea != eb and get(m + (eb - ea) * swap) != c:
                    return False
    return True
