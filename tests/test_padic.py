"""Exact p-adic arithmetic: precision tracking, logs, roots, norm forms."""

import math
import operator
import random
import re
from fractions import Fraction

import pytest

from grossstark.characters import (DirichletCharacter,
                                   is_fundamental_discriminant, kronecker)
from grossstark.cli import RunConfig
from grossstark.errors import (DomainError, NoRootError, PrecisionError,
                               RamifiedError)
from grossstark.lambdaring import LambdaElement
from grossstark.lfunctions import LSeriesInstance
from grossstark.padic import (PadicNumber, angle_bracket, cornacchia,
                              factorize, hensel_sqrt, is_prime, is_zero, plog,
                              teichmuller, v_p)
from grossstark.qexp import QExpansion
from grossstark.regulator import class_number, find_p_unit
from grossstark.walgebra import Laurent, build_W

from test_precision import check_row


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
    assert z.valuation == math.inf and z.precision == math.inf
    assert z.residue(3) == 0 and z.truncate(3) is z
    assert z == 0 and z != 1 and z == PadicNumber.zero(5)
    pz = N(5, 5**12)  # valuation beyond recorded precision
    assert not pz.exact_zero
    assert pz.is_zero_to_precision()
    assert pz.precision == 12 and N(5, 7, 9).precision == 9
    assert pz != z and z != pz
    with pytest.raises(PrecisionError):
        (z + 3).residue(1)  # exact zero + scalar needs a precision context
    # an exact zero scalar needs none: the sum is the exact zero itself
    assert z + 0 is z and 0 + z is z
    with pytest.raises(PrecisionError):
        z + 1
    assert is_zero(z) and is_zero(pz) and not is_zero(N(5, 5))
    assert is_zero(0) and is_zero(Fraction(0)) and not is_zero(Fraction(1, 5))


@pytest.mark.parametrize("make, hashable", [
    (lambda: PadicNumber(5, 0, 3, 10), False),
    (lambda: DirichletCharacter.quadratic(-4), True),
    (lambda: LambdaElement.constant(5, 2, N=4), True),
    (lambda: QExpansion(1, DirichletCharacter.quadratic(-4), [0, 1]), True),
    (lambda: find_p_unit(-4, 5), True),
    (lambda: Laurent.const(2), False),
    (lambda: build_W(1, 1, r_an=1, L=Fraction(5, 3)).from_scalar(2), False),
    (lambda: LSeriesInstance(5, DirichletCharacter.quadratic(-4)), True),
    (lambda: RunConfig("gross-stark", discs=(-4,)), True),
], ids=["PadicNumber", "DirichletCharacter", "LambdaElement", "QExpansion",
        "PUnitCertificate", "Laurent", "WElement", "LSeriesInstance",
        "RunConfig"])
def test_value_types_are_immutable(make, hashable):
    # every value type refuses set and delete and keeps its slots; the types
    # whose == crosses types (PadicNumber(5, 0, 3, 10) == 3) are unhashable
    x = make()
    before = {s: getattr(x, s) for s in type(x).__slots__}
    slot = type(x).__slots__[0]
    message = f"^{type(x).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(x, slot, None)
    with pytest.raises(AttributeError, match=message):
        delattr(x, slot)
    assert all(getattr(x, s) is v for s, v in before.items())
    if hashable:
        hash(x)
    else:
        with pytest.raises(TypeError):
            hash(x)


def _w_element():
    alg = build_W(3, 2, s=3, t=2, L=Fraction(5, 3), W=Fraction(2))
    return alg.one() + alg.pi() * 2 + alg.pi(2) - alg.y() + alg.eps(1)


@pytest.mark.parametrize("make, shown", [
    (lambda: PadicNumber.zero(5), "0 (exact)"),
    (lambda: PadicNumber(5, 3, 0, 3), "O(5^3)"),
    (lambda: PadicNumber.from_exact(5, Fraction(3, 5), 4), "3*5^-1 + O(5^4)"),
    (lambda: LambdaElement(5, [], N=4), "0"),
    (lambda: LambdaElement(5, [2, 0, 5], N=4),
     "(2*5^0 + O(5^4))*T^0 + (1*5^1 + O(5^4))*T^2"),
    (lambda: QExpansion(1, DirichletCharacter.quadratic(-4), [0, 1, 1, 0, 1, 2]),
     "QExpansion(weight=1, character=(chi_-4), [0, 1, 1, 0, 1, ...], "
     "reliable_to=5)"),
    (lambda: find_p_unit(-4, 5),
     "PUnitCertificate(d=-4, p=5, h=1, pi=(2+2*sqrt(-4))/2, o=-1)"),
    (Laurent, "0"),
    (lambda: Laurent({(0, 0): 2, (1, 0): Fraction(1, 2), (0, 1): -1,
                      (2, -1): 3, (-1, 3): 1}),
     "1*L^-1W^3 + 2 + -1*W + 1/2*L + 3*L^2W^-1"),
    (lambda: build_W(1, 1, r_an=1, L=Fraction(5, 3)).zero(), "0"),
    (_w_element, "(1)*1 + (2)*pi + (1)*pi^2 + (-1)*y + (1)*eps1"),
], ids=["exact-zero", "O(p^n)", "unit", "Lambda-0", "Lambda", "QExpansion",
        "PUnitCertificate", "Laurent-0", "Laurent", "W-0", "W"])
def test_repr(make, shown):
    assert repr(make()) == shown


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


# The earlier hand-written from_exact, square-and-multiply ** and
# trial-division is_prime, kept as oracles for the versions that go through
# the one normalizing constructor.

def _from_exact_oracle(p, x, nabs):
    x = Fraction(x)
    if x == 0:
        return PadicNumber.zero(p)
    v = v_p(x, p)
    rel = nabs - v
    if rel <= 0:
        return PadicNumber(p, nabs, 0, nabs)
    num = x.numerator // p ** max(v_p(x.numerator, p), 0)
    den = x.denominator // p ** max(v_p(x.denominator, p), 0)
    return PadicNumber(p, v, num * pow(den, -1, p ** rel) % p ** rel, nabs)


def _pow_oracle(x, k):
    if k < 0:
        return _pow_oracle(x.inverse(), -k)
    if k == 0:
        return x ** 0
    result = x
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def _is_prime_oracle(n):
    if n < 2 or (n % 2 == 0 and n != 2):
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _state(x):
    return (x.p, x.v, x.unit, x.nabs, x.exact_zero)


def _outcome(fn, *args):
    """The state of fn(*args), or the type and message of what it raised."""
    try:
        return _state(fn(*args))
    except (ArithmeticError, DomainError, PrecisionError) as exc:
        return type(exc), str(exc)


def test_from_exact_matches_the_oracle():
    rng = random.Random(2020)
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            num = rng.randrange(-p ** 4, p ** 4) * p ** rng.randrange(0, 4)
            den = rng.randrange(1, p ** 3) * p ** rng.randrange(0, 4)
            x = Fraction(num, den)
            for nabs in range(-4, 14):
                assert _outcome(PadicNumber.from_exact, p, x, nabs) == \
                    _outcome(_from_exact_oracle, p, x, nabs), (p, x, nabs)
                cases += 1
    assert cases == 5 * 60 * 18


def _pow_grid(rng, p):
    """Values with v in -2..3, nabs <= v (O(p^n)) included, and exact zero."""
    yield PadicNumber.zero(p)
    for v in range(-2, 4):
        for nabs in range(v - 2, v + 7):
            yield PadicNumber(p, v, 0, nabs)
            for _ in range(2):
                yield PadicNumber(p, v, rng.randrange(1, p ** 8), nabs)


def test_pow_matches_square_and_multiply():
    rng = random.Random(2021)
    seen = set()
    for p in (3, 5, 7, 11):
        for x in _pow_grid(rng, p):
            seen.add((x.exact_zero, x.unit == 0, x.v < 0))
            for k in range(-3, 21):
                assert _outcome(pow, x, k) == _outcome(_pow_oracle, x, k), \
                    (x, k)
    # exact zero, O(p^n), and units of negative and non-negative valuation
    assert seen >= {(True, True, False), (False, True, False),
                    (False, False, True), (False, False, False)}


def test_is_prime_matches_trial_division():
    is_prime.cache_clear()  # no memo hits
    for n in range(-5, 5000):
        assert is_prime(n) == _is_prime_oracle(n), n
    for n in range(2000):  # and again, through the memo
        assert is_prime(n) == _is_prime_oracle(n), n


def test_teichmuller_binding_values():
    # omega(2) at p=5: the 4th root of unity congruent to 2 mod 5
    t = teichmuller(2, 5, 2)
    assert t.residue(2) == 7
    # omega(a)^(p-1) = 1 and omega(a) = a mod p
    for p in (3, 5, 7, 13):
        for a in list(range(1, p)) + [-1, -2, -p - 2]:
            for prec in (1, 10, 50):
                w = teichmuller(a, p, prec)
                assert w.precision == prec
                assert (w ** (p - 1)).residue(prec) == 1
                assert w.residue(1) == a % p
    with pytest.raises(DomainError):
        teichmuller(2, 5, 0)


def test_angle_bracket():
    for p in (3, 5, 7, 13):
        for a in (2, 3, 4, 8, -1, -2, -17, 100):
            if a % p == 0:
                continue
            for prec in (1, 10, 50):
                x = angle_bracket(a, p, prec)
                assert x.precision == prec
                assert x.residue(1) == 1  # principal unit
                # a = omega(a) * <a>
                assert (teichmuller(a, p, prec) * x - a).is_zero_to_precision()
    with pytest.raises(DomainError):
        angle_bracket(2, 5, 0)


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


def _series_plog(x):
    """log(1+t) = sum (-1)^(n+1) t^n / n on x's principal-unit part: the oracle for plog."""
    p = x.p
    rel = x.nabs - x.v

    def ilog(n):
        v = 0
        while p ** (v + 1) <= n:
            v += 1
        return v

    # headroom for the p-part of the denominators n
    nmax = rel + 2 * ilog(rel + 2) + 4
    W = rel + ilog(nmax) + 2
    pw = p ** W
    u = x.unit % pw
    omega = pow(u, p ** (W - 1), pw)
    t = (u * pow(omega, -1, pw) - 1) % pw
    acc = 0
    tn = 1
    for n in range(1, nmax + 1):
        tn = tn * t % pw
        vn = v_p(n, p)
        term = tn // p ** vn * pow(n // p ** vn, -1, pw) % pw
        acc = (acc + (term if n % 2 == 1 else -term)) % pw
        # remaining terms all have valuation >= (n+1) - log_p(n+1)
        if n + 1 - ilog(n + 1) > rel:
            break
    return PadicNumber(p, 0, acc % p ** rel, rel)


def _random_unit(rng, p, rel):
    while True:
        u = rng.randrange(1, p ** rel)
        if u % p:
            return u


def test_plog_matches_the_series():
    rng = random.Random(3)
    cases = [(p, 2, v) for p in (3, 5, 7, 11, 13) for v in range(-3, 4)]
    cases += [(rng.choice((3, 5, 7, 11, 13)), rng.randint(2, 64),
               rng.randint(-3, 3)) for _ in range(1500)]
    for p, rel, v in cases:
        x = PadicNumber(p, v, _random_unit(rng, p, rel), v + rel)
        got, want = plog(x), _series_plog(x)
        assert (got.v, got.unit, got.nabs) == (want.v, want.unit, want.nabs), \
            (p, rel, v, x.unit)


def test_plog_precision_is_honest():
    # the plog row of the precision table: rel digits declared, all real
    check_row("plog")


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


def test_cornacchia_is_primitive_exactly_at_the_order_of_p():
    # every fundamental d with |d| < 1000 and every p <= 13 split in
    # Q(sqrt(d)): a solution comes back exactly for the h <= h(d) that the
    # order of P divides (P^h(d) is principal), and pi = (x + y sqrt(d))/2
    # is primitive: its coordinates on the integral basis 1, sqrt(d)/2 or
    # 1, (1 + sqrt(d))/2 have gcd 1
    fields = 0
    for D in range(3, 1000):
        if not is_fundamental_discriminant(-D):
            continue
        hd = class_number(-D)
        for p in (3, 5, 7, 11, 13):
            if kronecker(-D, p) != 1:
                continue
            found = []
            for h in range(1, hd + 1):
                sol = cornacchia(D, p ** h)
                if sol is None:
                    continue
                x, y = sol
                assert x * x + D * y * y == 4 * p ** h and x > 0 and y > 0
                a = x if D % 4 == 0 else x - y
                assert a % 2 == 0 and math.gcd(a // 2, y) == 1, (D, p, h, sol)
                found.append(h)
            assert found and found == list(range(found[0], hd + 1, found[0]))
            fields += 1
    assert fields == 665


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


@pytest.mark.parametrize("call, exc, message", [
    (lambda: PadicNumber(5, 0, 1, 2).residue(3), PrecisionError,
     "known only modulo 5^2, need 3"),
    (lambda: PadicNumber(5, -1, 1, 3).residue(2), DomainError,
     "negative valuation has no integer residue"),
    (lambda: PadicNumber(5, 0, 1, 2).truncate(3), PrecisionError,
     "cannot truncate upward"),
    (lambda: PadicNumber(5, 0, 1, 2).same_to(1, 3), PrecisionError,
     "difference known only modulo 5^2"),
    (lambda: PadicNumber(5, 0, 1, 2) / 0, ZeroDivisionError,
     "division by zero"),
    (lambda: plog(PadicNumber.zero(5)), DomainError, "plog of zero"),
    (lambda: plog(PadicNumber(5, 1, 2, 2)), PrecisionError,
     "plog needs at least 2 digits of the unit part"),
    (lambda: teichmuller(10, 5, 3), DomainError, "10 is divisible by 5"),
    (lambda: angle_bracket(10, 5, 3), DomainError, "10 is divisible by 5"),
], ids=["residue-past-precision", "residue-of-negative-v", "truncate-up",
        "same-to-past-precision", "divide-by-0", "plog-0", "plog-one-digit",
        "teichmuller-of-p", "angle-bracket-of-p"])
def test_input_guards(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


@pytest.mark.parametrize("op, other", [
    (operator.add, object()), (operator.sub, 1.5), (operator.mul, object()),
    (operator.truediv, object()), (operator.pow, Fraction(1, 2)),
    (operator.eq, object()),
], ids=["add", "sub-float", "mul", "truediv", "pow-Fraction", "eq"])
def test_foreign_operands(op, other):
    # arithmetic with an operand of a foreign type raises TypeError; == is False
    x = PadicNumber(5, 0, 3, 10)
    if op is operator.eq:
        assert op(x, other) is False
    else:
        with pytest.raises(TypeError):
            op(x, other)


def test_subtraction_defers_to_the_other_operand():
    # x - y is x + (-y), so an operand that x + y hands to y's reflected
    # method is handed on by x - y too
    x, w = PadicNumber(5, 0, 3, 10), _w_element()
    assert x - w == -(w - x)
    h = LambdaElement(5, [2, 0, 5], N=4)
    assert (x - h).coeffs == (-(h - x)).coeffs
