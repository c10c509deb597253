"""Truncated Iwasawa algebra: power series in T over Q_p up to degree M.

The weight-k specialization nu_k sends T to u^{k-1} - 1 for the fixed
topological generator u = 1 + p.  The normalized uniformizer is
pi = T / log_p(u), and the Lambda-adic cyclotomic character is

    epsilon(x) = (1 + T)^(log_p<x> / log_p u),

expanded as a binomial series.  Since the exponent is a p-adic integer, all
binomial coefficients lie in Z_p and the nu_k tail beyond T^M has valuation
at least (M+1) * v_p(u^{k-1} - 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, IndeterminateOrderError
from .padic import Immutable, PadicNumber, is_zero, plog, v_p

DEFAULT_TRUNCATION = 16


def topological_generator(p: int) -> int:
    """The fixed generator u = 1 + p of the principal units (p odd)."""
    return 1 + p


def _log_u(p: int, N: int) -> PadicNumber:
    """log_p(u) for the topological generator u, from u known to N digits."""
    return plog(PadicNumber.from_exact(p, topological_generator(p), N))


class LambdaElement(Immutable):
    """Polynomial in T of degree <= M with PadicNumber coefficients."""

    __slots__ = ("p", "M", "coeffs")

    def __init__(self, p, coeffs, M=DEFAULT_TRUNCATION, N=None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", M)
        fixed = []
        for c in list(coeffs)[: M + 1]:
            if isinstance(c, PadicNumber):
                fixed.append(c)
            elif c == 0:
                fixed.append(PadicNumber.zero(p))
            else:
                if N is None:
                    raise DomainError("exact coefficients need a target precision N")
                fixed.append(PadicNumber.from_exact(p, c, N))
        while len(fixed) < M + 1:
            fixed.append(PadicNumber.zero(p))
        object.__setattr__(self, "coeffs", tuple(fixed))

    @classmethod
    def constant(cls, p, c, M=DEFAULT_TRUNCATION, N=None):
        return cls(p, [c], M, N)

    def coeff(self, i: int) -> PadicNumber:
        return self.coeffs[i]

    def __repr__(self):
        shown = [f"({c})*T^{i}" for i, c in enumerate(self.coeffs)
                 if not is_zero(c)]
        return " + ".join(shown) if shown else "0"

    def _check(self, other):
        if self.p != other.p or self.M != other.M:
            raise DomainError("mixed truncations or primes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LambdaElement.constant(
                self.p, other, self.M, _scalar_precision(self))
        if isinstance(other, PadicNumber):
            other = LambdaElement.constant(self.p, other, self.M)
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        return LambdaElement(
            self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.M)

    __radd__ = __add__

    def __neg__(self):
        return LambdaElement(self.p, [-c for c in self.coeffs], self.M)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return LambdaElement(self.p, [c * other for c in self.coeffs], self.M)
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        out = [PadicNumber.zero(self.p) for _ in range(self.M + 1)]
        for i, a in enumerate(self.coeffs):
            if a.exact_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.M:
                    break
                if b.exact_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return LambdaElement(self.p, out, self.M)

    __rmul__ = __mul__


def _scalar_precision(h):
    live = [c.precision for c in h.coeffs if not c.exact_zero]
    return int(min(live)) if live else 1


def nu_k(h: LambdaElement, k) -> PadicNumber:
    """Weight-k specialization: evaluate h at T = u^{k-1} - 1.

    k is an int (a non-int raises DomainError).  nu_1 is the augmentation
    (constant term).  The result's precision is capped at
    (M+1) * v_p(u^{k-1} - 1), the valuation bound of the discarded tail.
    """
    if not isinstance(k, int):
        raise DomainError(f"the weight k must be an int, got {k!r}")
    if k == 1:
        return h.coeff(0)
    p = h.p
    # v_p(u^n - 1) = 1 + v_p(n) for u = 1 + p, p odd, n != 0 (lifting the
    # exponent), so t is one modular power at the digits it keeps
    v0 = 1 + v_p(k - 1, p)
    e = v0 * (h.M + 2) + 4
    t = PadicNumber(p, 0, pow(topological_generator(p), k - 1, p ** e) - 1, e)
    acc = PadicNumber.zero(p)
    for c in reversed(h.coeffs):
        acc = acc * t + c
    cap = (h.M + 1) * v0
    if not acc.exact_zero and acc.precision > cap:
        acc = acc.truncate(int(cap))
    return acc


def epsilon_char(x, p: int, M: int = DEFAULT_TRUNCATION, N: int = 12) -> LambdaElement:
    """The cyclotomic character (1+T)^alpha with alpha = log_p<x> / log_p u.

    x is an int coprime to p, or a PadicNumber unit.  Satisfies
    nu_k(epsilon_char(x)) = <x>^{k-1} to precision.  Binomial coefficients
    of a Z_p exponent are p-adically integral; the working precision is
    inflated by v_p(M!) to absorb the factorial divisions en route.
    """
    W = N + v_p(math.factorial(M), p) + 4
    if isinstance(x, PadicNumber):
        W = min(W, int(x.precision))
        xv = x
    else:
        xv = PadicNumber.from_exact(p, x, W)
    if xv.valuation != 0:
        raise DomainError("epsilon_char needs a p-adic unit")
    alpha = plog(xv) / _log_u(p, W)
    coeffs = [PadicNumber.from_exact(p, 1, W)]
    b = coeffs[0]
    for i in range(1, M + 1):
        b = b * (alpha - (i - 1)) / i
        coeffs.append(b)
    out = []
    for c in coeffs:
        if not c.exact_zero and c.precision > N:
            c = c.truncate(N)
        out.append(c)
    return LambdaElement(p, out, M)


def pi_normalize(h: LambdaElement):
    """Write h = pi^n * h' with pi = T / log_p(u) and nu_1(h') a unit.

    Returns (n, h').  n is the index of the first coefficient that does not
    vanish to its precision, and h' absorbs the (log_p u)^n scaling so that
    nu_1(h') equals the leading Taylor coefficient of k -> nu_k(h) at k = 1.
    h' is truncated at degree M - n: its higher coefficients would come
    from the terms of h beyond T^M, which are unknown.
    """
    n = None
    for i, c in enumerate(h.coeffs):
        if not is_zero(c):
            n = i
            break
    if n is None:
        raise IndeterminateOrderError(
            "all coefficients vanish to precision; pi-order indeterminate")
    prec = max(int(c.precision) for c in h.coeffs if not c.exact_zero)
    scale = _log_u(h.p, prec + 4) ** n
    shifted = [c * scale for c in h.coeffs[n:]]
    return n, LambdaElement(h.p, shifted, h.M - n)


def uniformizer(p: int, M: int, N: int) -> LambdaElement:
    """pi = T / log_p(u) at truncation M, with log_p(u) worked from N + 4 digits."""
    return LambdaElement(p, [PadicNumber.zero(p), _log_u(p, N + 4).inverse()], M)
