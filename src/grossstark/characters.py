"""Dirichlet characters over Q with values in Z_p, and generalized Bernoulli numbers.

A character is stored in a canonical factored form

    chi(a) = kronecker(disc, a) * omega_p(a)^om_exp * [a coprime to forced zeros]

with disc a fundamental discriminant (or 1), omega_p the Teichmueller
character at an odd prime p, and a set of primes at which the modulus was
raised.  Quadratic Teichmueller powers are folded into disc (via the prime
discriminant p* = (-1)^((p-1)/2) p), so values are exact Fractions whenever
the character is real, and PadicNumbers otherwise.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from .errors import ConsistencyError, DomainError, PrecisionError
from .padic import PadicNumber, factorize, is_prime


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), full extension of Jacobi to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi loop for odd n > 0; reciprocity sign uses the pre-swap values
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _squarefree(n):
    return all(e == 1 for _, e in factorize(abs(n)))


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _squarefree(q)
    return False


def prime_discriminant(p: int) -> int:
    """p* = (-1)^((p-1)/2) p, the discriminant of the quadratic field in Q(zeta_p)."""
    return p if p % 4 == 1 else -p


def _fold_discriminant(D: int):
    """Write kronecker(D, .) = kronecker(D0, .) * [coprimality], D0 fundamental."""
    if D == 0:
        raise DomainError("zero discriminant")
    sign = -1 if D < 0 else 1
    core = sign
    support = []
    for q, e in factorize(abs(D)):
        support.append(q)
        if e % 2:
            core *= q
    if core % 4 != 1 and core != 1:
        D0 = 4 * core
    else:
        D0 = core
    zeros = frozenset(q for q in support if D0 % q != 0)
    return D0, zeros


class DirichletCharacter:
    """Immutable Dirichlet character in canonical factored form."""

    __slots__ = ("disc", "p", "om_exp", "zeros")

    def __init__(self, disc, p=None, om_exp=0, zeros=frozenset()):
        disc, p, om_exp, zeros = _canonicalize(disc, p, om_exp, zeros)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "om_exp", om_exp)
        object.__setattr__(self, "zeros", zeros)

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    @classmethod
    def quadratic(cls, d: int) -> "DirichletCharacter":
        if not is_fundamental_discriminant(d):
            raise DomainError(f"{d} is not a fundamental discriminant")
        return cls(d)

    @classmethod
    def trivial(cls) -> "DirichletCharacter":
        return cls(1)

    @classmethod
    def teichmuller_power(cls, p: int, m: int = 1) -> "DirichletCharacter":
        return cls(1, p, m % (p - 1))

    # -- structure ----------------------------------------------------

    @property
    def conductor(self):
        return abs(self.disc) * (self.p if self.om_exp else 1)

    @property
    def modulus(self):
        return self.conductor * math.prod(self.zeros)

    @property
    def parity(self):
        """chi(-1)."""
        sign = -1 if self.disc < 0 else 1
        return sign * (-1) ** (self.om_exp % 2)

    @property
    def is_odd(self):
        return self.parity == -1

    @property
    def is_trivial_function(self):
        """Trivial up to forced zeros (possibly a raised trivial character)."""
        return self.disc == 1 and self.om_exp == 0

    @property
    def is_rational(self):
        return self.om_exp == 0

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (self.disc, self.p, self.om_exp, self.zeros) == (
            other.disc, other.p, other.om_exp, other.zeros)

    def __hash__(self):
        return hash((self.disc, self.p, self.om_exp, self.zeros))

    def __repr__(self):
        parts = []
        if self.disc != 1:
            parts.append(f"chi_{self.disc}")
        if self.om_exp:
            parts.append(f"omega_{self.p}^{self.om_exp}")
        body = " * ".join(parts) if parts else "1"
        tail = f" mod {self.modulus}" if self.zeros else ""
        return f"({body}{tail})"

    # -- evaluation ---------------------------------------------------

    def __call__(self, a: int, prec: int | None = None):
        """chi(a): exact Fraction when the character is real, else PadicNumber."""
        if math.gcd(a, self.modulus) != 1:
            return Fraction(0)
        k = kronecker(self.disc, a)
        if self.om_exp == 0:
            return Fraction(k)
        if prec is None:
            raise PrecisionError("character value is p-adic; a precision is required")
        # omega(a)^om_exp = a^(om_exp p^(prec-1)) mod p^prec in one pow
        p = self.p
        unit = pow(a, self.om_exp * p ** (prec - 1), p ** prec)
        return PadicNumber(p, 0, unit, prec) * Fraction(k)

    # -- operations ---------------------------------------------------

    def raise_modulus(self, primes) -> "DirichletCharacter":
        return DirichletCharacter(
            self.disc, self.p, self.om_exp, self.zeros | frozenset(primes))

    def product(self, other: "DirichletCharacter") -> "DirichletCharacter":
        p = self.p or other.p
        if self.p and other.p and self.p != other.p:
            raise DomainError("characters live at different primes")
        D0, extra = _fold_discriminant(self.disc * other.disc)
        om = 0
        if p:
            if D0 % p == 0:
                D0 //= prime_discriminant(p)
                om = (p - 1) // 2
            om = (om + self.om_exp + other.om_exp) % (p - 1)
        return DirichletCharacter(D0, p, om, self.zeros | other.zeros | extra)

    def __mul__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.product(other)

    def inverse(self) -> "DirichletCharacter":
        if self.om_exp == 0:
            return self
        return DirichletCharacter(
            self.disc, self.p, (-self.om_exp) % (self.p - 1), self.zeros)

    def teichmuller_twist(self, j: int, p: int | None = None) -> "DirichletCharacter":
        """chi * omega^j, with the result's modulus always divisible by p."""
        p = self.p or p
        if p is None:
            raise DomainError("no prime attached; pass p explicitly")
        disc, om = self.disc, self.om_exp
        if disc % p == 0:
            disc //= prime_discriminant(p)
            om = (om + (p - 1) // 2) % (p - 1)
        om = (om + j) % (p - 1)
        zeros = self.zeros
        if om == 0:
            zeros = zeros | {p}
        return DirichletCharacter(disc, p, om, zeros)


def _canonicalize(disc, p, om_exp, zeros):
    if not is_fundamental_discriminant(disc):
        raise DomainError(f"{disc} is not a fundamental discriminant")
    if p is not None:
        if p < 3 or not is_prime(p):
            raise DomainError(f"{p} is not an odd prime")
        om_exp %= p - 1
        if om_exp == (p - 1) // 2:
            # quadratic Teichmueller power folds into the discriminant
            if disc % p == 0:
                raise DomainError("p divides the discriminant of an omega-carrying character")
            disc *= prime_discriminant(p)
            om_exp = 0
        if om_exp == 0:
            p = None
        elif disc % p == 0:
            raise DomainError("p divides the discriminant of an omega-carrying character")
    conductor = abs(disc) * (p if om_exp else 1)
    zeros = frozenset(q for q in zeros if conductor % q != 0)
    for q in zeros:
        if not is_prime(q):
            raise DomainError(f"forced zero at non-prime {q}")
    return disc, p, om_exp, zeros


# -- generalized Bernoulli numbers -------------------------------------


class BernoulliCache:
    """Exact Bernoulli numbers B_n (classical convention, B_1 = -1/2), disk-backed.

    The JSON file is revalidated on load against the defining recursion
    sum_{j=0}^{n} C(n+1, j) B_j = 0; invalid or wrong-version files are
    discarded silently (and recomputed), never trusted.
    """

    VERSION = 1

    def __init__(self, path=None):
        self.path = path
        self._table = [Fraction(1)]
        self.computed_count = 0
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data.get("version") != self.VERSION:
                return
            entries = data["entries"]
            table = []
            for i, (n, txt) in enumerate(entries):
                if n != i:
                    return
                num, _, den = txt.partition("/")
                table.append(Fraction(int(num), int(den or 1)))
            if not _bernoulli_table_valid(table):
                return
            self._table = table
        except (OSError, ValueError, KeyError, TypeError):
            return

    def save(self):
        if not self.path:
            return
        entries = [[n, f"{b.numerator}/{b.denominator}"] for n, b in enumerate(self._table)]
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"version": self.VERSION, "entries": entries}, fh)
        os.replace(tmp, self.path)

    def number(self, n: int) -> Fraction:
        """B_n; a missing stretch of the table is filled up to n in one pass."""
        if n < 0:
            raise DomainError("Bernoulli numbers need n >= 0")
        start = len(self._table)
        if n >= start:
            self._table.extend(_bernoulli_range(start, n))
            if not _bernoulli_table_valid(self._table, start):
                del self._table[start:]
                raise ConsistencyError(
                    f"Bernoulli numbers B_{start}..B_{n} fail the recursion")
            self.computed_count += n + 1 - start
        return self._table[n]


def _bernoulli_range(start: int, n: int) -> list:
    """B_start, ..., B_n (start >= 1) from the tangent numbers T_1..T_{n//2}.

    B_1 = -1/2, B_m = 0 for odd m > 1, and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the T_k from the
    integer recurrence of Brent and Harvey, "Fast computation of Bernoulli,
    tangent and secant numbers" (2011), Algorithm TangentNumbers.
    """
    K = n // 2
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    out = []
    for m in range(start, n + 1):
        if m == 1:
            out.append(Fraction(-1, 2))
        elif m % 2:
            out.append(Fraction(0))
        else:
            k = m // 2
            out.append(Fraction((-1) ** (k - 1) * 2 * k * T[k],
                                4 ** k * (4 ** k - 1)))
    return out


def _bernoulli_table_valid(table, start=1):
    """sum_{j=0}^{n} C(n+1, j) B_j = 0 for every n >= start, on integer numerators.

    Scaling the table by the LCM of its denominators keeps the test exact
    and spares a Fraction normalization per term.
    """
    if not table or table[0] != 1:
        return False
    lcm = math.lcm(*(b.denominator for b in table))
    nums = [b.numerator * (lcm // b.denominator) for b in table]
    for n in range(start, len(nums)):
        if sum(math.comb(n + 1, j) * nums[j] for j in range(n + 1)) != 0:
            return False
    return True


_default_cache = BernoulliCache()
_shared_cache: BernoulliCache | None = None


def bernoulli_number(n: int) -> Fraction:
    cache = _shared_cache if _shared_cache is not None else _default_cache
    return cache.number(n)


def set_shared_cache(cache: BernoulliCache | None):
    """Install a cache for Bernoulli numbers; None reverts to the in-memory default."""
    global _shared_cache
    _shared_cache = cache


def shared_cache() -> BernoulliCache | None:
    """The explicitly installed cache, or None if only the default is active."""
    return _shared_cache


def gen_bernoulli(n: int, chi: DirichletCharacter, prec: int | None = None):
    """B_{n, chi} summed over the character's modulus.

    B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f) with f the modulus, so
    raised characters automatically yield Euler-factor-deleted values.
    Expanding B_n(x) = sum_j C(n, j) B_j x^(n-j) turns it into
    sum_j C(n, j) B_j f^(j-1) S_{n-j} with the power sums
    S_k = sum_{a=1}^{f} chi(a) a^k (Washington, Cyclotomic Fields, Prop. 4.1).
    The trivial modulus-1 character returns the plain Bernoulli number, with
    the classical B_1 = -1/2 (documented convention; the n=1, f=1 sum would
    give +1/2).
    """
    if n < 1:
        raise DomainError("gen_bernoulli needs n >= 1")
    f = chi.modulus
    if f == 1:
        return bernoulli_number(n)
    bernoulli_number(n)  # fills a cold table in one pass
    coeffs = [math.comb(n, j) * bernoulli_number(j) * Fraction(f) ** (j - 1)
              for j in range(n + 1)]
    sums = [0] * (n + 1)
    if chi.is_rational:
        for a in range(1, f + 1):
            c = int(chi(a))
            for k in range(n + 1):
                sums[k] += c
                c *= a
        return sum(coef * sums[n - j] for j, coef in enumerate(coeffs))
    if prec is None:
        raise PrecisionError("character is p-adic valued; a precision is required")
    p, pm = chi.p, chi.p ** prec
    for a in range(1, f + 1):
        c = chi(a, prec)
        if isinstance(c, Fraction):
            continue  # a shares a prime with the modulus
        c = c.residue(prec)
        for k in range(n + 1):
            sums[k] += c
            c = c * a % pm
    total = PadicNumber.zero(p)
    for j, coef in enumerate(coeffs):
        if coef:
            total = total + PadicNumber(p, 0, sums[n - j], prec) * coef
    return total
