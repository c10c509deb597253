"""Precision-tracked p-adic arithmetic for odd primes.

A value is stored as unit * p^v with the guarantee "known modulo p^nabs"
(absolute precision).  Precision propagates conservatively: sums keep the
minimum absolute precision, products keep min(v1 + N2, v2 + N1).  Exact
integers and Fractions coerce at operation time without degrading the
p-adic operand's precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, NoRootError, PrecisionError, RamifiedError


def v_p(x, p):
    """p-adic valuation of an int or Fraction; math.inf for 0."""
    if isinstance(x, Fraction):
        if x == 0:
            return math.inf
        return v_p(x.numerator, p) - v_p(x.denominator, p)
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class PadicNumber:
    """Element of Q_p known to finite absolute precision.

    exact_zero marks the true zero (infinite precision).  A non-exact value
    with unit 0 means "0 modulo p^nabs": its valuation is only bounded below
    by nabs, and `valuation` reports that bound.
    """

    __slots__ = ("p", "v", "unit", "nabs", "exact_zero")

    def __init__(self, p, v, unit, nabs, exact_zero=False):
        if p < 3 or not is_prime(p):
            raise DomainError(f"p must be an odd prime, got {p}")
        object.__setattr__(self, "p", p)
        if exact_zero:
            object.__setattr__(self, "v", 0)
            object.__setattr__(self, "unit", 0)
            object.__setattr__(self, "nabs", None)
            object.__setattr__(self, "exact_zero", True)
            return
        rel = nabs - v
        if rel <= 0:
            v, unit = nabs, 0
        else:
            unit %= p ** rel
            if unit == 0:
                v = nabs
            else:
                while unit % p == 0:
                    unit //= p
                    v += 1
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "nabs", nabs)
        object.__setattr__(self, "exact_zero", False)

    def __setattr__(self, name, value):
        raise AttributeError("PadicNumber is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, 0, 0, 0, exact_zero=True)

    @classmethod
    def from_exact(cls, p, x, nabs):
        """Exact int or Fraction, recorded modulo p^nabs."""
        x = Fraction(x)
        if x == 0:
            return cls.zero(p)
        v = v_p(x, p)
        rel = nabs - v
        if rel <= 0:
            return cls(p, nabs, 0, nabs)
        num = x.numerator // p ** max(v_p(x.numerator, p), 0)
        den = x.denominator // p ** max(v_p(x.denominator, p), 0)
        unit = num * pow(den, -1, p ** rel) % p ** rel
        return cls(p, v, unit, nabs)

    # -- inspection ---------------------------------------------------

    @property
    def valuation(self):
        """Valuation, or its precision lower bound for an imprecise zero."""
        if self.exact_zero:
            return math.inf
        return self.v

    @property
    def precision(self):
        return math.inf if self.exact_zero else self.nabs

    def is_zero_to_precision(self):
        return self.unit == 0

    def residue(self, M):
        """Integer representative modulo p^M (requires v >= 0, nabs >= M)."""
        if self.exact_zero:
            return 0
        if self.nabs < M:
            raise PrecisionError(f"known only modulo {self.p}^{self.nabs}, need {M}")
        if self.v < 0:
            raise DomainError("negative valuation has no integer residue")
        return self.unit * self.p ** self.v % self.p ** M

    def truncate(self, M):
        """Same value declared at absolute precision M <= nabs."""
        if self.exact_zero:
            return self
        if M > self.nabs:
            raise PrecisionError("cannot truncate upward")
        return PadicNumber(self.p, self.v, self.unit, M)

    def __repr__(self):
        if self.exact_zero:
            return "0 (exact)"
        if self.unit == 0:
            return f"O({self.p}^{self.nabs})"
        return f"{self.unit}*{self.p}^{self.v} + O({self.p}^{self.nabs})"

    def __eq__(self, other):
        """Structural equality of representations (use same_to for p-adic closeness)."""
        if isinstance(other, (int, Fraction)):
            if self.exact_zero:
                return other == 0
            other = PadicNumber.from_exact(self.p, other, self.nabs)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.exact_zero or other.exact_zero:
            return self.exact_zero and other.exact_zero
        return (self.p, self.v, self.unit, self.nabs) == (other.p, other.v, other.unit, other.nabs)

    def __hash__(self):
        if self.exact_zero:
            return hash((self.p, "zero"))
        return hash((self.p, self.v, self.unit, self.nabs))

    def same_to(self, other, M):
        """True iff self - other has valuation >= M (both known that far)."""
        d = self - other
        if isinstance(d, PadicNumber) and not d.exact_zero and d.nabs < M:
            raise PrecisionError(f"difference known only modulo {self.p}^{d.nabs}")
        return d.valuation >= M

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.exact_zero:
                if other == 0:
                    return self
                raise PrecisionError("exact zero + exact scalar has no precision context")
            other = PadicNumber.from_exact(self.p, other, self.nabs)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.exact_zero:
            return other
        if other.exact_zero:
            return self
        p = self.p
        nabs = min(self.nabs, other.nabs)
        v = min(self.v, other.v)
        lifted = self.unit * p ** (self.v - v) + other.unit * p ** (other.v - v)
        return PadicNumber(p, v, lifted, nabs)

    __radd__ = __add__

    def __neg__(self):
        if self.exact_zero:
            return self
        return PadicNumber(self.p, self.v, -self.unit, self.nabs)

    def __sub__(self, other):
        neg = -other if isinstance(other, PadicNumber) else -Fraction(other)
        return self.__add__(neg)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return PadicNumber.zero(self.p)
            if self.exact_zero:
                return self
            vc = v_p(other, self.p)
            other = PadicNumber.from_exact(self.p, other, vc + (self.nabs - self.v))
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.exact_zero or other.exact_zero:
            return PadicNumber.zero(self.p)
        p = self.p
        rel = min(self.nabs - self.v, other.nabs - other.v)
        v = self.v + other.v
        return PadicNumber(p, v, self.unit * other.unit, v + rel)

    __rmul__ = __mul__

    def inverse(self):
        if self.unit == 0:
            raise ZeroDivisionError("inverse of (p-adic) zero")
        p, v = self.p, self.v
        rel = self.nabs - v
        inv = pow(self.unit, -1, p ** rel)
        return PadicNumber(p, -v, inv, rel - v)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / other)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            if self.exact_zero:
                return PadicNumber.from_exact(self.p, 1, 1)
            return PadicNumber.from_exact(self.p, 1, max(self.nabs - self.v, 1))
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result


def is_zero(x) -> bool:
    """Zero test for any scalar: a PadicNumber counts as zero to its precision."""
    if isinstance(x, PadicNumber):
        return x.is_zero_to_precision()
    return not x


_PRIMES_SEEN = set()


def is_prime(n: int) -> bool:
    """Primality by trial division; primes already seen are remembered."""
    if n in _PRIMES_SEEN:
        return True
    if n < 2 or (n % 2 == 0 and n != 2):
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    _PRIMES_SEEN.add(n)
    return True


def plog(x: PadicNumber) -> PadicNumber:
    """Iwasawa logarithm: log(p) = 0, log(zeta) = 0 for roots of unity.

    Strips p^v and the Teichmueller factor, then evaluates
    log(1+t) = sum (-1)^(n+1) t^n / n on the principal-unit part.
    """
    if x.exact_zero or x.unit == 0:
        raise DomainError("plog of zero")
    p = x.p
    rel = x.nabs - x.v
    if rel < 2:
        raise PrecisionError("plog needs at least 2 digits of the unit part")
    # headroom for the p-part of the denominators n
    nmax = rel + 2 * _ilog(rel + 2, p) + 4
    buf = _ilog(nmax, p) + 2
    W = rel + buf
    pw = p ** W
    u = x.unit % pw
    omega = pow(u, p ** (W - 1), pw)
    u1 = u * pow(omega, -1, pw) % pw
    t = (u1 - 1) % pw
    acc = 0
    tn = 1
    for n in range(1, nmax + 1):
        tn = tn * t % pw
        vn = v_p(n, p)
        # t^n has valuation >= n >= p^vn > vn, so the division is exact
        term = tn // p ** vn * pow(n // p ** vn, -1, pw) % pw
        acc = (acc + (term if n % 2 == 1 else -term)) % pw
        # remaining terms all have valuation >= (n+1) - log_p(n+1)
        if n + 1 - _ilog(n + 1, p) > rel:
            break
    return PadicNumber(p, 0, acc % p ** rel, rel)


def _ilog(n, p):
    v = 0
    while p ** (v + 1) <= n:
        v += 1
    return v


def teichmuller(a: int, p: int, N: int) -> PadicNumber:
    """The Teichmueller representative: omega(a)^(p-1) = 1, omega(a) = a mod p."""
    if a % p == 0:
        raise DomainError(f"{a} is divisible by {p}")
    return PadicNumber(p, 0, pow(a, p ** (N - 1), p ** N), N)


def angle_bracket(a: int, p: int, N: int) -> PadicNumber:
    """The principal-unit part <a> = a / omega(a), congruent to 1 mod p."""
    if a % p == 0:
        raise DomainError(f"{a} is divisible by {p}")
    pk = p ** N
    om = pow(a, p ** (N - 1), pk)
    return PadicNumber(p, 0, a * pow(om, -1, pk), N)


def factorize(n: int) -> list:
    """The (q, e) pairs with n = prod q^e, q ascending, by trial division (n >= 1)."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _sqrt_mod_prime(a: int, q: int):
    """A square root of the unit a modulo the odd prime q (Tonelli-Shanks), or None."""
    a %= q
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        # x^2 = a b throughout; b has order 2^i with i < s
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % q
            i += 1
        g = pow(c, 1 << (s - i - 1), q)
        x, c, s = x * g % q, g * g % q, i
        b = b * c % q
    return x


def _lift_sqrt(r: int, a: int, q: int, N: int) -> int:
    """Newton lift of a root r of the unit a modulo the odd prime q to q^N."""
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        pk = q ** prec
        r = (r - (r * r - a) * pow(2 * r, -1, pk)) % pk
    return r % q ** N


def hensel_sqrt(a: int, p: int, N: int) -> PadicNumber:
    """Deterministic square root of a modulo p^N.

    Returns the root whose least residue mod p is smallest; the companion
    root is its negative.
    """
    if a % p == 0:
        raise RamifiedError(f"{a} is divisible by {p}; ramified roots unsupported")
    r = _sqrt_mod_prime(a, p)
    if r is None:
        raise NoRootError(f"{a} is not a quadratic residue mod {p}")
    r = min(r, p - r)
    return PadicNumber(p, 0, _lift_sqrt(r, a, p, N), N)


def cornacchia(D: int, m: int):
    """Primitive solution (x, y) of x^2 + D y^2 = 4m with smallest x, or None.

    m must be p^h, p an odd prime not dividing D, and D = 0 or 3 mod 4.
    "Primitive" means (x + y*sqrt(-D))/2 is not divisible by any rational
    prime in the maximal order containing it.  Modified Cornacchia (Cohen,
    Alg. 1.5.3): Euclid on (2m, r) with r^2 = -D (mod 4m) stops at the first
    remainder b <= sqrt(4m), and b is x if (4m - b^2)/D is a square.
    """
    if D <= 0 or D % 4 not in (0, 3):
        raise DomainError(f"D must be positive and 0 or 3 mod 4, got {D}")
    factors = factorize(m)
    if len(factors) != 1 or factors[0][0] == 2 or D % factors[0][0] == 0:
        raise DomainError(f"m must be a power of an odd prime not dividing D, got {m}")
    p, h = factors[0]
    if pow(-D, (p - 1) // 2, p) != 1:
        return None
    r = hensel_sqrt(-D, p, h).residue(h)
    if (r - D) % 2:
        r = m - r
    target = 4 * m
    bound = math.isqrt(target)
    a, b = 2 * m, r
    while b > bound:
        a, b = b, a % b
    rest = target - b * b
    if rest % D:
        return None
    y = math.isqrt(rest // D)
    if y == 0 or y * y * D != rest or not _pi_is_primitive(b, y, D):
        return None
    x = b
    # the extra units of Q(i) and Q(sqrt(-3)) give associates with other x
    if D == 4:
        return min((x, y), (2 * y, x // 2))
    if D == 3:
        return min((x, y), (abs(x + 3 * y) // 2, abs(x - y) // 2),
                   (abs(x - 3 * y) // 2, abs(x + y) // 2))
    return x, y


def _pi_is_primitive(x, y, D):
    # pi = (x + y sqrt(-D))/2 in the maximal order of Q(sqrt(-D)).
    if D % 4 == 0:
        # order Z[sqrt(-D/4)], coordinates (x/2, y); the 4m-form forces x even
        if x % 2:
            return False
        return math.gcd(x // 2, y) == 1
    # -D = 1 mod 4: order Z[(1+sqrt(-D))/2], x and y of equal parity
    if (x - y) % 2:
        return False
    g = math.gcd(x, y)
    for q, _ in factorize(g):
        if q == 2:
            if (x // 2 - y // 2) % 2 == 0:
                return False
        else:
            return False
    return True
