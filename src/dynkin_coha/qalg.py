"""The quantum algebra of a Dynkin quiver.

Generators y_gamma, one per dimension vector, multiply by
y_a y_b = -q^(lambda(a,b)/2) y_(a+b).  Elements are stored on the normal-form
basis: the ordered word of simple generators
y_1^{gamma(1)} y_2^{gamma(2)} ... y_n^{gamma(n)}, one basis vector per
dimension vector.  On that basis the structure constants are plain integer
powers of q with positive sign, which keeps coefficient arithmetic cheap.

The module also houses the quantum dilogarithm series of a generator, the
exponent bookkeeping that reads orbit codimensions off normal forms, and the
verifier for the ordered-product dilogarithm identity (simple roots on one
side, positive roots in admissible order on the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import modrep
from .qseries import QRat, QTruncSeries
from .quiver import (
    DimVector,
    Quiver,
    check_dim_vector,
    lambda_form,
    require,
    simple_vector,
    vec_add,
    vec_leq,
    vec_scale,
    zero_vector,
)


@dataclass(frozen=True)
class QMonomial:
    gamma: DimVector
    coeff: QRat


@lru_cache(maxsize=None)
def _lambda_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    basis = [simple_vector(q, i) for i in range(1, q.n + 1)]
    return tuple(
        tuple(lambda_form(q, basis[i], basis[j]) for j in range(q.n))
        for i in range(q.n)
    )


def mono_mul(q: Quiver, g1, g2) -> QMonomial:
    """Product of two generators: dimension vectors add, the coefficient is
    minus q to half the commutator form."""
    g1 = check_dim_vector(q, g1)
    g2 = check_dim_vector(q, g2)
    lam = lambda_form(q, g1, g2)
    return QMonomial(vec_add(g1, g2), -QRat.s_power(lam))


def _nf_weight_doubled(q: Quiver, gamma: DimVector) -> int:
    """Twice the q-exponent relating the ordered simple word to y_gamma.

    The ordered word y_1^{g1} ... y_n^{gn} equals
    (-1)^(|gamma|-1) q^(W) y_gamma with 2W = sum_{i<j} g_i g_j lambda_ij.
    """
    lam = _lambda_matrix(q)
    total = 0
    for i in range(q.n):
        if not gamma[i]:
            continue
        for j in range(i + 1, q.n):
            total += gamma[i] * gamma[j] * lam[i][j]
    return total


def nf_structure_exponent(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """Integer e with NF(g1) NF(g2) = q^e NF(g1+g2) on normal-form words."""
    lam = _lambda_matrix(q)
    total = 0
    for i in range(q.n):
        if not g2[i]:
            continue
        for j in range(i + 1, q.n):
            total -= lam[i][j] * g2[i] * g1[j]
    return total


def normal_form_exponent(q: Quiver, m) -> tuple[int, Fraction]:
    """Sign and q-exponent of the ordered root word relative to the ordered
    simple word.

    The word y_{b_1}^{m_1} ... y_{b_N}^{m_N} (roots in admissible order) is
    rewritten, one generator multiplication at a time, as
    sign * q^w * y_1^{gamma(1)} ... y_n^{gamma(n)}.
    """
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    letters: list[DimVector] = []
    for mu, beta in zip(m, rd.roots):
        letters.extend([beta] * mu)
    if not letters:
        return 1, Fraction(0)

    sign = 1
    w2 = 0  # doubled exponent, always an integer
    gamma = letters[0]
    for letter in letters[1:]:
        # one generator product y_gamma y_letter, as in mono_mul
        sign = -sign
        w2 += lambda_form(q, gamma, letter)
        gamma = vec_add(gamma, letter)
    # convert y_gamma to the ordered simple word
    sign *= (-1) ** (sum(gamma) - 1)
    w2 -= _nf_weight_doubled(q, gamma)

    expected = (-1) ** sum(
        mu * (sum(beta) - 1) for mu, beta in zip(m, rd.roots)
    )
    require(sign == expected, "sign disagrees with the closed formula")
    return sign, Fraction(w2, 2)


def verify_codim_lemma(q: Quiver, m) -> bool:
    """Exact zero test of the normal-form exponent identity
    (sum m_u^2)/2 - (sum gamma(i)^2)/2 + w - codim = 0."""
    rd = modrep.root_data(q)
    m = modrep.check_module_type(rd, m)
    gamma = rd.module_dims(m)
    _, w = normal_form_exponent(q, m)
    value = (
        Fraction(sum(mu * mu for mu in m), 2)
        - Fraction(sum(g * g for g in gamma), 2)
        + w
        - modrep.codim(q, m)
    )
    return value == 0


class QAlgElement:
    """Finite linear combination of normal-form words.

    Coefficients are QRat (exact) or QTruncSeries (truncated), never mixed
    inside one computation; both support +, * and shift_q, which is all the
    normal-form product needs.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: dict):
        self.quiver = quiver
        self.terms = {g: c for g, c in terms.items() if not c.is_zero()}

    @classmethod
    def one(cls, q: Quiver, exact: bool = True, prec: int = 0) -> "QAlgElement":
        coeff = QRat.one() if exact else QTruncSeries.one(prec)
        return cls(q, {zero_vector(q): coeff})

    def __add__(self, other: "QAlgElement") -> "QAlgElement":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out[g] + c if g in out else c
        return QAlgElement(self.quiver, out)

    def mul(self, other: "QAlgElement", cap: DimVector | None = None) -> "QAlgElement":
        out: dict[DimVector, object] = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = vec_add(g1, g2)
                if cap is not None and not vec_leq(g, cap):
                    continue
                c = (c1 * c2).shift_q(nf_structure_exponent(self.quiver, g1, g2))
                out[g] = out[g] + c if g in out else c
        return QAlgElement(self.quiver, out)

    def __mul__(self, other: "QAlgElement") -> "QAlgElement":
        return self.mul(other)

    def coefficient(self, gamma: DimVector):
        return self.terms.get(tuple(gamma))


def _dilog_terms(q: Quiver, gamma0, cap):
    """(n * gamma0, sign, s-exponent, n) for every multiple n * gamma0 under
    the componentwise cap: the n-th dilogarithm term on the normal-form basis
    is sign * s^e / prod_{j<=n} (1 - q^j)."""
    gamma0 = check_dim_vector(q, gamma0)
    cap = check_dim_vector(q, cap)
    if not any(gamma0):
        raise ValueError("dilogarithm of the zero vector is not defined")
    terms = []
    n = 0
    while vec_leq(vec_scale(n, gamma0), cap):
        sign = (-1) ** (n * sum(gamma0))
        s_exp = n * n - _nf_weight_doubled(q, vec_scale(n, gamma0))
        terms.append((vec_scale(n, gamma0), sign, s_exp, n))
        n += 1
    return terms


def dilog_series(q: Quiver, gamma0, cap) -> QAlgElement:
    """Quantum dilogarithm of the generator y_gamma0, truncated to multiples
    n * gamma0 that stay under the componentwise cap.

    The n-th term carries (-1)^n q^(n^2/2) / prod_{j<=n} (1 - q^j) on the
    n-th power of the generator; powers are rewritten on the normal-form
    basis.
    """
    terms: dict[DimVector, QRat] = {}
    for gamma, sign, s_exp, n in _dilog_terms(q, gamma0, cap):
        coeff = QRat.s_power(s_exp)
        if sign < 0:
            coeff = -coeff
        for j in range(1, n + 1):
            coeff = coeff / (QRat.one() - QRat.s_power(2 * j))
        terms[gamma] = coeff
    return QAlgElement(q, terms)


def dilog_series_truncated(q: Quiver, gamma0, cap, prec: int) -> QAlgElement:
    """Same series with coefficients expanded as s-series to precision prec.

    Each coefficient is expanded straight into integers: sign * s^e times
    the series of partitions into parts of size at most n, one in-place pass
    c[k] += c[k - 2j] per factor 1/(1 - q^j).  dilog_series, which builds the
    exact rational functions, is the independent route the tests compare
    this against.
    """
    terms: dict[DimVector, QTruncSeries] = {}
    for gamma, sign, s_exp, n in _dilog_terms(q, gamma0, cap):
        c = [sign] + [0] * (prec - s_exp) if s_exp <= prec else []
        for j in range(1, n + 1):
            for k in range(2 * j, len(c)):
                c[k] += c[k - 2 * j]
        terms[gamma] = QTruncSeries({s_exp + k: x for k, x in enumerate(c) if x}, prec)
    return QAlgElement(q, terms)


def reineke_identity_check(
    q: Quiver, cap, precision: int
) -> tuple[bool, dict | None]:
    """Compare the ordered dilogarithm product over simple generators with the
    one over positive roots in admissible order.

    Both sides are truncated to the componentwise cap on dimension vectors and
    expanded to q^precision.  Returns (True, None) on agreement, otherwise
    (False, info) with the first differing normal-form word.
    """
    cap = check_dim_vector(q, cap)
    rd = modrep.root_data(q)
    prec = 2 * precision

    lhs = QAlgElement.one(q, exact=False, prec=prec)
    for i in range(1, q.n + 1):
        lhs = lhs.mul(dilog_series_truncated(q, simple_vector(q, i), cap, prec), cap)
    rhs = QAlgElement.one(q, exact=False, prec=prec)
    for beta in rd.roots:
        if not vec_leq(beta, cap):
            continue
        rhs = rhs.mul(dilog_series_truncated(q, beta, cap, prec), cap)

    zero = QTruncSeries.zero(prec)
    for gamma in sorted(set(lhs.terms) | set(rhs.terms)):
        a = lhs.terms.get(gamma, zero)
        b = rhs.terms.get(gamma, zero)
        if not a.agrees_with(b, prec):
            return False, {
                "gamma": gamma,
                "lhs": str(a),
                "rhs": str(b),
            }
    return True, None
