"""Exact p-adic arithmetic: precision tracking, logs, roots, norm forms."""

import math
import random
from fractions import Fraction

import pytest

from grossstark import padic
from grossstark.errors import (DomainError, NoRootError, PrecisionError,
                               RamifiedError)
from grossstark.padic import (PadicNumber, angle_bracket, cornacchia,
                              factorize, hensel_sqrt, is_prime, is_zero, plog,
                              teichmuller, v_p)


def N(p, x, nabs=12):
    return PadicNumber.from_exact(p, x, nabs)


def test_v_p_basics():
    assert v_p(50, 5) == 2
    assert v_p(Fraction(1, 25), 5) == -2
    assert v_p(Fraction(3, 7), 5) == 0
    assert v_p(0, 5) == math.inf


def test_is_prime_against_a_sieve():
    limit = 500
    composite = set()
    for q in range(2, limit):
        composite.update(range(q * q, limit, q))
    for n in range(-3, limit):
        assert is_prime(n) == (n >= 2 and n not in composite), n
    assert is_prime(2 ** 31 - 1) and not is_prime(3 ** 15)


def test_factorize():
    for n in range(1, 3000):
        pairs = factorize(n)
        assert math.prod(q ** e for q, e in pairs) == n, n
        assert all(is_prime(q) and e >= 1 for q, e in pairs), n
        assert [q for q, _ in pairs] == sorted({q for q, _ in pairs}), n
    assert factorize(4 * 1000003 ** 3) == [(2, 2), (1000003, 3)]
    with pytest.raises(DomainError):
        factorize(0)


def test_composite_p_rejected():
    with pytest.raises(DomainError):
        PadicNumber(9, 0, 1, 4)


def test_from_exact_and_residue():
    x = N(5, 7)
    assert x.valuation == 0
    assert x.residue(2) == 7
    y = N(5, 50)
    assert y.valuation == 2
    assert y.residue(3) == 50
    z = N(5, Fraction(1, 2))
    assert (z * 2).residue(12) == 1


def test_addition_precision_min():
    a = PadicNumber(5, 0, 3, 10)
    b = PadicNumber(5, 0, 4, 6)
    c = a + b
    assert c.precision == 6
    assert c.residue(6) == 7


def test_multiplication_precision_rule():
    # product precision: min(v1 + N2, v2 + N1)
    a = PadicNumber(5, 2, 1, 10)   # 25, known mod 5^10
    b = PadicNumber(5, 0, 2, 6)    # 2, known mod 5^6
    c = a * b
    assert c.valuation == 2
    assert c.precision == 8


def test_exact_scalar_coercion():
    a = N(5, 7, 8)
    assert (a + 3).residue(8) == 10
    assert (a * Fraction(1, 7)).residue(8) == 1
    assert (2 - a).residue(8) == (2 - 7) % 5**8


def test_exact_zero_vs_precision_zero():
    z = PadicNumber.zero(5)
    assert z.exact_zero
    assert z.valuation == math.inf
    pz = N(5, 5**12)  # valuation beyond recorded precision
    assert not pz.exact_zero
    assert pz.is_zero_to_precision()
    with pytest.raises(PrecisionError):
        (z + 3).residue(1)  # exact zero + scalar needs a precision context
    assert is_zero(z) and is_zero(pz) and not is_zero(N(5, 5))
    assert is_zero(0) and is_zero(Fraction(0)) and not is_zero(Fraction(1, 5))


def test_inverse():
    a = N(5, 7, 10)
    inv = a.inverse()
    assert (a * inv).residue(10) == 1
    b = N(5, 50, 10)
    binv = b.inverse()
    assert binv.valuation == -2
    assert (b * binv).residue(8) == 1
    with pytest.raises((DomainError, PrecisionError, ZeroDivisionError)):
        PadicNumber.zero(5).inverse()


def test_pow():
    a = N(5, 7, 10)
    assert (a ** 3).residue(10) == 7 ** 3 % 5 ** 10
    assert (a ** 0).residue(1) == 1
    assert ((a ** -2) * a ** 2).residue(8) == 1


def test_teichmuller_binding_values():
    # omega(2) at p=5: the 4th root of unity congruent to 2 mod 5
    t = teichmuller(2, 5, 2)
    assert t.residue(2) == 7
    # omega(a)^(p-1) = 1 and omega(a) = a mod p
    for p in (3, 5, 7):
        for a in range(1, p):
            w = teichmuller(a, p, 10)
            assert (w ** (p - 1)).residue(10) == 1
            assert w.residue(1) == a % p


def test_angle_bracket():
    for p in (3, 5, 7):
        for a in (2, 3, 4, 8):
            if a % p == 0:
                continue
            x = angle_bracket(a, p, 10)
            assert x.residue(1) == 1  # principal unit
            # a = omega(a) * <a>
            assert (teichmuller(a, p, 10) * x - a).is_zero_to_precision()


def test_plog_is_iwasawa_log():
    p = 5
    # log(1+p)= p - p^2/2 + p^3/3 - ... truncated check mod p^5
    x = N(p, 1 + p, 12)
    lg = plog(x)
    expect = Fraction(0)
    for k in range(1, 20):
        expect += Fraction((-1) ** (k + 1), k) * Fraction(p) ** k
    assert (lg - expect).valuation >= 12
    # Iwasawa branch: plog kills p-powers and roots of unity
    assert plog(N(p, p, 12)).is_zero_to_precision()
    assert plog(teichmuller(2, p, 12)).is_zero_to_precision()
    # homomorphism on a random sample
    rng = random.Random(1)
    for _ in range(20):
        a = rng.randrange(1, 200)
        b = rng.randrange(1, 200)
        if a % p == 0 or b % p == 0:
            continue
        s = plog(N(p, a, 14)) + plog(N(p, b, 14))
        t = plog(N(p, a * b, 14))
        assert (s - t).is_zero_to_precision()


def test_plog_strips_valuation():
    p = 5
    x = N(p, 50, 14)  # 2 * 5^2
    assert (plog(x) - plog(N(p, 2, 14))).is_zero_to_precision()


def test_hensel_sqrt_binding_values():
    r = hensel_sqrt(-1, 5, 2)
    assert r.residue(2) == 7
    assert (r * r + 1).is_zero_to_precision()
    # deterministic convention: smaller least residue mod p
    r2 = hensel_sqrt(-4, 5, 2)
    assert r2.residue(2) == 11
    for (a, p) in ((-3, 7), (2, 7), (-11, 5), (6, 5)):
        w = hensel_sqrt(a, p, 14)
        assert (w * w - a).is_zero_to_precision()


def test_hensel_sqrt_root_convention_is_minimal_residue():
    for (a, p) in ((-1, 5), (-4, 5), (-3, 7), (2, 7), (-7, 11)):
        w = hensel_sqrt(a, p, 10)
        r = w.residue(1)
        assert 1 <= r <= p // 2, (a, p, r)


def test_hensel_sqrt_large_prime():
    # the root mod p comes from Tonelli-Shanks, not a scan over [1, p)
    for p, a in ((1000003, 13), (1000003, -26), (1000033, -11)):
        N = 6
        w = hensel_sqrt(a, p, N)
        assert (w * w - a).is_zero_to_precision()
        assert w.precision == N
        assert 1 <= w.residue(1) <= p // 2


def test_hensel_sqrt_errors():
    with pytest.raises(NoRootError):
        hensel_sqrt(2, 5, 8)  # 2 is not a QR mod 5
    with pytest.raises(RamifiedError):
        hensel_sqrt(5, 5, 8)
    with pytest.raises(RamifiedError):
        hensel_sqrt(-20, 5, 8)


def test_cornacchia_binding_examples():
    assert cornacchia(3, 7) == (1, 3)      # (1 + 3 sqrt(-3))/2, norm 7
    assert cornacchia(4, 5) == (2, 2)      # (2 + 2 sqrt(-4))/2 = 1 + 2i
    assert cornacchia(4, 13) == (4, 3)
    assert cornacchia(3, 5) is None        # 5 inert in Q(sqrt(-3))


_CORNACCHIA_DS = (3, 4, 7, 8, 11, 15, 20, 23, 24)
_ODD_PRIMES = [q for q in range(3, 4000) if is_prime(q)]


def _random_prime_power(rng, D, limit):
    """m = q^h < limit with q an odd prime not dividing D, h in 1..5."""
    # a large h may leave no prime (D = 15, limit 1500, h = 4): step h down
    for h in range(rng.choice((1, 1, 2, 3, 4, 5)), 0, -1):
        qs = [q for q in _ODD_PRIMES if q ** h < limit and D % q]
        if qs:
            return rng.choice(qs) ** h


def _brute_cornacchia(D, m):
    # brute-force oracle over the full solution set
    best = None
    x = 0
    while x * x <= 4 * m:
        rest = 4 * m - x * x
        if rest % D == 0:
            y2 = rest // D
            y = math.isqrt(y2)
            if y * y == y2 and y > 0 and x > 0:
                # primitivity mirror of the library rule
                primitive = True
                for q in range(2, 60):
                    if m % (q * q) == 0 and (4 * m) % (q * q) == 0:
                        if x % q == 0 and y % q == 0 \
                                and (x // q) ** 2 + D * (y // q) ** 2 == 4 * m // (q * q):
                            primitive = False
                            break
                if primitive:
                    best = (x, y)
                    break
        x += 1
    return best


def test_cornacchia_norm_identity_and_primitivity():
    rng = random.Random(7)
    found = 0
    for _ in range(300):
        D = rng.choice(_CORNACCHIA_DS)
        m = _random_prime_power(rng, D, 4000)
        sol = cornacchia(D, m)
        if sol is None:
            continue
        found += 1
        x, y = sol
        assert x * x + D * y * y == 4 * m
        # primitivity: (x + y sqrt(-D))/2 not divisible by a rational prime q:
        # q | pi means q^2 | norm and q | x, y scaled appropriately
        for q in (2, 3, 5, 7):
            if m % (q * q):
                continue
            if x % q == 0 and y % q == 0:
                # (x/q)^2 + D (y/q)^2 = 4m/q^2 would witness divisibility
                assert (x // q) ** 2 + D * (y // q) ** 2 != 4 * m // (q * q)
    assert found > 50


def test_cornacchia_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(120):
        D = rng.choice(_CORNACCHIA_DS)
        m = _random_prime_power(rng, D, 1500)
        got = cornacchia(D, m)
        want = _brute_cornacchia(D, m)
        assert got == want, (D, m, got, want)


def test_cornacchia_large_prime_powers_match_exhaustive_search():
    # 4q^h > 10^7, where the Euclidean stop at sqrt(4m) has many steps to go
    cases = [(D, m) for D in _CORNACCHIA_DS
             for q, m in ((3, 3 ** 14), (5, 5 ** 10), (7, 7 ** 8), (13, 13 ** 6))
             if D % q]
    assert all(4 * m > 10 ** 7 for _, m in cases)
    got = [cornacchia(D, m) for D, m in cases]
    assert got == [_brute_cornacchia(D, m) for D, m in cases]
    assert sum(sol is not None for sol in got) >= 10


@pytest.mark.parametrize("D, m", [
    (7, 15), (7, 3 * 11 ** 2),    # composite m
    (7, 2), (7, 2 ** 6),          # m = 2^k
    (15, 5), (20, 5 ** 3), (24, 3),  # q divides D
    (7, 1), (7, 0), (7, -11),     # no prime at all
    (5, 7), (0, 7), (-7, 11),     # D not minus a discriminant
])
def test_cornacchia_domain(D, m):
    with pytest.raises(DomainError):
        cornacchia(D, m)


def test_truncate_and_same_to():
    a = N(5, 7, 12)
    b = a.truncate(6)
    assert b.precision == 6
    assert a.same_to(b, 6)
    assert a.same_to(a + 5 ** 6, 6)
    assert not a.same_to(a + 5 ** 3, 6)
