"""The arithmetic side: explicit p-units and the Gross regulator.

For an imaginary quadratic field Q(sqrt(d)) in which p splits, the prime p
factors as P * Pbar, and the minus-part of the p-unit group is generated
(up to roots of unity) by u = pi/pibar where pi generates P^h, h the order
of P in the class group.  The two measurement maps are

    o(u) = ord_p(iota(pi)) - ord_p(iota(pibar))     (an integer, +-h),
    l(u) = plog(iota(pi)) - plog(iota(pibar))       (a p-adic number),

with iota the embedding determined by a chosen square root w of d in Z_p.
The rank-1 regulator is -l(u)/o(u); the general form is the ratio of
determinants det(-l_matrix)/det(o_matrix) on supplied measurement matrices.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .characters import kronecker, is_fundamental_discriminant
from .errors import (ConsistencyError, DomainError, PrecisionError,
                     RamifiedError)
from .padic import PadicNumber, cornacchia, hensel_sqrt, plog
from .walgebra import det

_W_MARGIN = 4


class PUnitCertificate:
    """A p-unit u = pi/pibar with the data needed to re-derive and audit it.

    pi = (x + y*sqrt(d))/2 has norm p^h, h minimal; w is the chosen square
    root of d in Z_p fixing the embedding; o and ell are the two
    measurements of u under that embedding.
    """

    __slots__ = ("d", "p", "h", "x", "y", "w", "o", "ell")

    def __init__(self, d, p, h, x, y, w):
        if h < 1:
            raise DomainError(f"h must be at least 1, got {h}")
        if (x * x - d * y * y) % 4:
            raise DomainError("x^2 - d y^2 must be divisible by 4")
        if (x * x - d * y * y) // 4 != p ** h:
            raise DomainError("norm identity (x^2 - d y^2)/4 = p^h fails")
        if not isinstance(w, PadicNumber) or w.p != p:
            raise DomainError("w must be a p-adic square root of d")
        if not ((w * w) - d).is_zero_to_precision():
            raise DomainError("w^2 != d to working precision")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        o, ell = measure_parts(d, p, h, x, y, w)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "ell", ell)

    def __setattr__(self, name, value):
        raise AttributeError("PUnitCertificate is immutable")

    def with_root(self, w: PadicNumber) -> "PUnitCertificate":
        """The same p-unit measured under a different square root of d."""
        return PUnitCertificate(self.d, self.p, self.h, self.x, self.y, w)

    def conjugate(self) -> "PUnitCertificate":
        """Swap the two primes above p (replace w by -w)."""
        return self.with_root(-self.w)

    def dump(self) -> dict:
        ell = self.ell
        prec = ell.precision
        res = ell.residue(prec)
        digits = []
        for _ in range(prec):
            res, dig = divmod(res, self.p)
            digits.append(dig)
        return {
            "d": self.d,
            "p": self.p,
            "h": self.h,
            "x": self.x,
            "y": self.y,
            "w_mod_pN": self.w.residue(self.w.precision),
            "o": self.o,
            "ell_digits": digits,
        }

    def dumps(self) -> str:
        return json.dumps(self.dump(), sort_keys=True)

    def __repr__(self):
        return (f"PUnitCertificate(d={self.d}, p={self.p}, h={self.h}, "
                f"pi=({self.x}{self.y:+d}*sqrt({self.d}))/2, o={self.o})")


def measure_parts(d, p, h, x, y, w) -> tuple[int, PadicNumber]:
    """Measurements (o(u), l(u)) of u = pi/pibar from raw certificate data."""
    half = Fraction(1, 2)
    pi_img = (x + w * y) * half
    pibar_img = (x - w * y) * half
    v1, v2 = pi_img.valuation, pibar_img.valuation
    if {v1, v2} != {0, h}:
        raise PrecisionError("embedding did not separate the primes above p")
    o = v1 - v2
    ell = plog(pi_img) - plog(pibar_img)
    return o, ell


def class_number(d: int) -> int:
    """h(d): the number of reduced primitive forms (a, b, c), b^2 - 4ac = d < 0.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c (Cohen,
    Alg. 5.3.5); b runs over b = d (mod 2) up to sqrt(|d|/3).
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"d = {d} is not a negative discriminant")
    h = 0
    b = d % 2
    while 3 * b * b <= -d:
        q = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0 and math.gcd(a, b, q // a) == 1:
                # (a, -b, c) is reduced too unless b = 0, |b| = a or a = c
                h += 1 if b in (0, a) or a * a == q else 2
            a += 1
        b += 2
    return h


def find_p_unit(d: int, p: int, N: int = 12) -> PUnitCertificate:
    """Find the minimal-power generator pi of P^h and certify u = pi/pibar.

    Searches h = 1, 2, ..., h(d) for a primitive solution of
    x^2 + |d| y^2 = 4 p^h; the minimal h is the order of P in the class
    group, which divides h(d), so an empty search is a fault of the program
    (ConsistencyError).  The embedding root w is the deterministic Hensel
    lift of sqrt(d), computed with enough slack that l(u) retains at least
    N digits.
    """
    if d >= 0 or not is_fundamental_discriminant(d):
        raise DomainError(f"d = {d} is not a negative fundamental discriminant")
    if d % p == 0:
        raise RamifiedError(f"p = {p} ramifies in Q(sqrt({d}))")
    if kronecker(d, p) != 1:
        raise DomainError(f"p = {p} is inert in Q(sqrt({d}))")
    hd = class_number(d)
    for h in range(1, hd + 1):
        sol = cornacchia(-d, p ** h)
        if sol is None:
            continue
        x, y = sol
        w = hensel_sqrt(d, p, N + h + _W_MARGIN)
        return PUnitCertificate(d, p, h, x, y, w)
    raise ConsistencyError(
        f"no primitive norm-form solution for d={d}, p={p} with h <= h(d) = {hd}")


def gross_regulator_rank1(cert: PUnitCertificate) -> PadicNumber:
    """-l(u)/o(u): invariant under root swap and choice of associate."""
    return cert.ell * Fraction(-1, cert.o)


def gross_regulator_general(o_matrix, l_matrix) -> PadicNumber:
    """det(-l)/det(o) = (-1)^r det(l)/det(o) for r x r measurement matrices.

    o_matrix holds exact integers (or rationals), l_matrix p-adic numbers.
    Invariant under right-multiplying both by a common invertible rational
    matrix and under common row scalings.
    """
    r = len(o_matrix)
    if r == 0 or any(len(row) != r for row in o_matrix) \
            or len(l_matrix) != r or any(len(row) != r for row in l_matrix):
        raise DomainError("need square matrices of matching size")
    det_o = det(o_matrix)
    if det_o == 0:
        raise DomainError("singular o-matrix")
    det_l = det(l_matrix)
    sign = (-1) ** r
    return det_l * (Fraction(sign) / Fraction(det_o))

