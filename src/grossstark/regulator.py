"""The arithmetic side: explicit p-units and the Gross regulator.

For an imaginary quadratic field Q(sqrt(d)) in which p splits, the prime p
factors as P * Pbar, and the minus-part of the p-unit group is generated
(up to roots of unity) by u = pi/pibar where pi generates P^h, h the order
of P in the class group.  The two measurement maps are

    o(u) = ord_p(iota(pi)) - ord_p(iota(pibar))     (an integer, +-h),
    l(u) = plog(iota(pi)) - plog(iota(pibar))       (a p-adic number),

with iota the embedding determined by a chosen square root w of d in Z_p.
The regulator is -l(u)/o(u).  Over Q the minus-part has rank at most 1, so
this rank-1 ratio is the whole of Gross's rank-r determinant det(-l)/det(o).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .characters import kronecker, is_fundamental_discriminant
from .errors import ConsistencyError, DomainError, PrecisionError
from .padic import Immutable, PadicNumber, cornacchia, hensel_sqrt, plog

_W_MARGIN = 4


class PUnitCertificate(Immutable):
    """A p-unit u = pi/pibar with the data needed to re-derive and audit it.

    pi = (x + y*sqrt(d))/2 has norm p^h, h minimal; w is the chosen square
    root of d in Z_p fixing the embedding.  The constructor itself computes
    o = o(u) and ell = l(u), the two measurements of u under that embedding.
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
        half = Fraction(1, 2)
        pi_img = (x + w * y) * half
        pibar_img = (x - w * y) * half
        v1, v2 = pi_img.valuation, pibar_img.valuation
        if {v1, v2} != {0, h}:
            raise PrecisionError("embedding did not separate the primes above p")
        object.__setattr__(self, "o", v1 - v2)
        object.__setattr__(self, "ell", plog(pi_img) - plog(pibar_img))

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

    def __repr__(self):
        return (f"PUnitCertificate(d={self.d}, p={self.p}, h={self.h}, "
                f"pi=({self.x}{self.y:+d}*sqrt({self.d}))/2, o={self.o})")


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

    This is the one test that p splits: chi_d(p) = -1 (inert) or 0
    (ramified) raises DomainError.  Searches h = 1, 2, ..., h(d) for a
    primitive solution of x^2 + |d| y^2 = 4 p^h; the minimal h is the order
    of P in the class group, which divides h(d), so an empty search is a
    fault of the program (ConsistencyError).  The embedding root w is the
    deterministic Hensel lift of sqrt(d), computed with enough slack that
    l(u) retains at least N digits.
    """
    if d >= 0 or not is_fundamental_discriminant(d):
        raise DomainError(f"d = {d} is not a negative fundamental discriminant")
    if (k := kronecker(d, p)) != 1:
        raise DomainError(f"p = {p} is not split in Q(sqrt({d})): chi({p}) = {k}")
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

