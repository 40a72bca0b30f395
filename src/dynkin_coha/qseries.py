"""Exact arithmetic in the half power s of the deformation variable q.

Everything is written in s with s^2 = q, so half-integer powers of q are
integer powers of s and no fractional exponents ever appear.  Two views are
provided: QRat, a reduced rational function in s with Fraction coefficients,
and QTruncSeries, a truncated Laurent series that tracks its own precision so
that arithmetic never pretends to know coefficients it has not computed.
Series built directly, the classifying-space series and the truncated
dilogarithm, hold plain int coefficients; QTruncSeries.from_qrat expands a
QRat in Fractions.  Either kind compares equal term by term.

The classifying-space series f_n (Poincare series of the n-th unitary
classifying space in q) and the orbit-sum Betti identity live here as well.
"""

from __future__ import annotations

from fractions import Fraction

from . import modrep
from .quiver import Quiver, check_dim_vector

Poly = tuple[Fraction, ...]  # dense in s, low degree first, trimmed; () is zero

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(c: list[Fraction]) -> Poly:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pshift(a: Poly, k: int) -> Poly:
    if not a:
        return ()
    return (_ZERO,) * k + a


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    lead = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quo[k] = c
        for i, x in enumerate(b):
            rem[k + i] -= c * x
        while rem and not rem[-1]:
            rem.pop()
    return _trim(quo), _trim(rem)


def _pcontent_primitive(a: Poly) -> Poly:
    """Integer-primitive version of a rational polynomial (positive leading
    coefficient)."""
    if not a:
        return ()
    from math import gcd, lcm

    denom = lcm(*(x.denominator for x in a))
    ints = [int(x * denom) for x in a]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if ints[-1] < 0:
        g = -g
    return tuple(Fraction(x, g) for x in ints)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a primitive remainder sequence (keeps coefficients
    small)."""
    a, b = _pcontent_primitive(a), _pcontent_primitive(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, _pcontent_primitive(r)
    if not a:
        return ()
    return tuple(x / a[-1] for x in a)


class QRat:
    """Reduced rational function in s = q^(1/2) with Fraction coefficients.

    The denominator is monic and coprime to the numerator, so equality is a
    tuple comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = tuple(Fraction(x) for x in num)
        den = tuple(Fraction(x) for x in den)
        num = _trim(list(num))
        den = _trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self_num: Poly = ()
            self_den: Poly = (_ONE,)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lead = den[-1]
            self_num = tuple(x / lead for x in num)
            self_den = tuple(x / lead for x in den)
        object.__setattr__(self, "num", self_num)
        object.__setattr__(self, "den", self_den)

    def __setattr__(self, *a):
        raise AttributeError("QRat is immutable")

    @classmethod
    def zero(cls) -> "QRat":
        return cls(())

    @classmethod
    def one(cls) -> "QRat":
        return cls((_ONE,))

    @classmethod
    def from_fraction(cls, x) -> "QRat":
        return cls((Fraction(x),))

    @classmethod
    def s_power(cls, k: int) -> "QRat":
        if k >= 0:
            return cls(_pshift((_ONE,), k))
        return cls((_ONE,), _pshift((_ONE,), -k))

    @classmethod
    def q_power(cls, e) -> "QRat":
        e2 = Fraction(e) * 2
        if e2.denominator != 1:
            raise ValueError(f"q exponent {e} is not a half-integer")
        return cls.s_power(int(e2))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, QRat) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "QRat") -> "QRat":
        return QRat(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __neg__(self) -> "QRat":
        return QRat(_pneg(self.num), self.den)

    def __sub__(self, other: "QRat") -> "QRat":
        return self + (-other)

    def __mul__(self, other: "QRat") -> "QRat":
        return QRat(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "QRat") -> "QRat":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return QRat(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def shift_q(self, e: int) -> "QRat":
        """Multiply by q^e (an integer power)."""
        return self * QRat.s_power(2 * e)

    def truncated(self, prec: int) -> "QTruncSeries":
        return QTruncSeries.from_qrat(self, prec)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        num = _poly_str(self.num)
        if self.den == (_ONE,):
            return num
        return f"({num}) / ({_poly_str(self.den)})"

    __repr__ = __str__


def _q_exp_str(k: int) -> str:
    if k % 2 == 0:
        e = k // 2
        return "" if e == 0 else ("q" if e == 1 else f"q^{e}")
    return f"q^({k}/2)"


def _poly_str(coeffs) -> str:
    terms = []
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    for k, c in sorted(items):
        if not c:
            continue
        power = _q_exp_str(k)
        if not power:
            body = str(abs(c))
        elif abs(c) == 1:
            body = power
        else:
            body = f"{abs(c)} {power}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


class QTruncSeries:
    """Laurent series in s known exactly for exponents <= prec.

    Arithmetic propagates the precision window: the product of series known to
    p1 and p2 with valuations v1 and v2 is known to min(p1 + v2, p2 + v1), so
    no coefficient beyond what was actually computed is ever consulted.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs: dict[int, int | Fraction], prec: int):
        self.coeffs = {k: v for k, v in coeffs.items() if v and k <= prec}
        self.prec = prec

    @classmethod
    def zero(cls, prec: int) -> "QTruncSeries":
        return cls({}, prec)

    @classmethod
    def one(cls, prec: int) -> "QTruncSeries":
        return cls({0: 1}, prec)

    @classmethod
    def s_power(cls, k: int, prec: int) -> "QTruncSeries":
        return cls({k: 1}, prec)

    @classmethod
    def from_qrat(cls, qr: QRat, prec: int) -> "QTruncSeries":
        if qr.is_zero():
            return cls({}, prec)
        num, den = qr.num, qr.den
        vn = next(i for i, x in enumerate(num) if x)
        vd = next(i for i, x in enumerate(den) if x)
        shift = vn - vd
        num = num[vn:]
        den = den[vd:]
        terms = prec - shift + 1
        if terms <= 0:
            return cls({}, prec)
        inv0 = 1 / den[0]
        inv = [inv0]
        for k in range(1, terms):
            acc = 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc += den[j] * inv[k - j]
            inv.append(-acc * inv0)
        out: dict[int, int | Fraction] = {}
        for i, x in enumerate(num):
            if not x:
                continue
            for k in range(terms - i):
                c = x * inv[k]
                if c:
                    key = shift + i + k
                    out[key] = out.get(key, 0) + c
        return cls(out, prec)

    def valuation(self) -> int:
        """Smallest exponent with a (known) nonzero coefficient; for a series
        with no known terms this falls back to prec + 1."""
        return min(self.coeffs) if self.coeffs else self.prec + 1

    def __add__(self, other: "QTruncSeries") -> "QTruncSeries":
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return QTruncSeries(out, prec)

    def __neg__(self) -> "QTruncSeries":
        return QTruncSeries({k: -v for k, v in self.coeffs.items()}, self.prec)

    def __sub__(self, other: "QTruncSeries") -> "QTruncSeries":
        return self + (-other)

    def __mul__(self, other: "QTruncSeries") -> "QTruncSeries":
        prec = min(
            self.prec + other.valuation(),
            other.prec + self.valuation(),
        )
        out: dict[int, int | Fraction] = {}
        get = out.get
        right = sorted(other.coeffs.items())
        for k1, v1 in self.coeffs.items():
            limit = prec - k1
            for k2, v2 in right:  # ascending, so the window closes for good
                if k2 > limit:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
        return QTruncSeries(out, prec)

    def shift_q(self, e: int) -> "QTruncSeries":
        return QTruncSeries(
            {k + 2 * e: v for k, v in self.coeffs.items()}, self.prec + 2 * e
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_q(self, e: int) -> int | Fraction:
        """Coefficient of q^e (integer e), which must lie inside the window."""
        if 2 * e > self.prec:
            raise ValueError(f"coefficient of q^{e} beyond precision")
        return self.coeffs.get(2 * e, 0)

    def agrees_with(self, other: "QTruncSeries", s_order: int) -> bool:
        """Exact coefficient comparison for all exponents <= s_order."""
        if self.prec < s_order or other.prec < s_order:
            raise ValueError("comparison order exceeds known precision")
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            self.coeffs.get(k, 0) == other.coeffs.get(k, 0)
            for k in keys
            if k <= s_order
        )

    def __str__(self) -> str:
        return _poly_str(self.coeffs)

    __repr__ = __str__


def f_series(n: int, precision: int) -> QTruncSeries:
    """Power series of the product of geometric series with steps 1..n, up to
    q^precision.

    The coefficient of q^k counts partitions of k into parts of size at most
    n; f_0 is the constant 1.
    """
    if n < 0:
        raise ValueError("f_series needs n >= 0")
    coeffs = [1] + [0] * precision
    for j in range(1, n + 1):
        for k in range(j, precision + 1):
            coeffs[k] += coeffs[k - j]
    return QTruncSeries({2 * k: c for k, c in enumerate(coeffs) if c}, 2 * precision)


def f_rational(n: int) -> QRat:
    """The same series as an exact rational function."""
    if n < 0:
        raise ValueError("f_rational needs n >= 0")
    den: Poly = (_ONE,)
    for j in range(1, n + 1):
        factor = [_ONE] + [_ZERO] * (2 * j - 1) + [-_ONE]
        den = _pmul(den, tuple(factor))
    return QRat((_ONE,), den)


def gl_betti_identity_check(n: int, precision: int) -> bool:
    """Check f_{n-1} + q^n f_n = f_n up to q^precision (n >= 1)."""
    if n < 1:
        raise ValueError("the identity needs n >= 1")
    lhs = f_series(n - 1, precision) + f_series(n, precision).shift_q(n)
    return lhs.agrees_with(f_series(n, precision), 2 * precision)


def _orbit_side_series(q: Quiver, gamma, precision: int) -> QTruncSeries:
    total = QTruncSeries.zero(2 * precision)
    for m in modrep.orbits_for(q, gamma):
        term = QTruncSeries.one(2 * precision)
        for mu in m:
            if mu:
                term = term * f_series(mu, precision)
        total = total + term.shift_q(modrep.codim(q, m))
    return total


def kazarian_betti_check(q: Quiver, gamma, precision: int) -> bool:
    """Orbit-sum Betti identity, checked on truncated series up to
    q^precision."""
    gamma = check_dim_vector(q, gamma)
    rhs = QTruncSeries.one(2 * precision)
    for gi in gamma:
        if gi:
            rhs = rhs * f_series(gi, precision)
    return _orbit_side_series(q, gamma, precision).agrees_with(rhs, 2 * precision)


def kazarian_betti_check_exact(q: Quiver, gamma) -> bool:
    """Same identity as an exact rational-function equality."""
    gamma = check_dim_vector(q, gamma)
    lhs = QRat.zero()
    for m in modrep.orbits_for(q, gamma):
        term = QRat.s_power(2 * modrep.codim(q, m))
        for mu in m:
            if mu:
                term = term * f_rational(mu)
        lhs = lhs + term
    rhs = QRat.one()
    for gi in gamma:
        if gi:
            rhs = rhs * f_rational(gi)
    return lhs == rhs
