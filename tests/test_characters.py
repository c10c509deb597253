"""Kronecker symbols, character canonicalization, generalized Bernoulli numbers."""

import json
import math
import operator
import random
import re
from fractions import Fraction
from math import comb, prod

import pytest

from grossstark import characters
from grossstark.characters import (BernoulliCache, DirichletCharacter,
                                   bernoulli_number, gen_bernoulli,
                                   is_fundamental_discriminant, kronecker,
                                   prime_discriminant, set_shared_cache)
from grossstark.errors import ConsistencyError, DomainError, PrecisionError
from grossstark.padic import PadicNumber, teichmuller, teichmuller_lift


# -- kronecker oracle ------------------------------------------------------

def test_kronecker_against_euler_criterion():
    # Jacobi (a|n) = prod over q^e || n of (a|q)^e, with the Legendre
    # symbol (a|q) = a^((q-1)/2) mod q read as 0, 1 or -1
    def jacobi(a, n):
        out = 1
        for q in range(3, n + 1, 2):
            while n % q == 0:
                n //= q
                legendre = pow(a, (q - 1) // 2, q)
                out *= -1 if legendre == q - 1 else legendre
        return out

    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(-60, 61)
        n = rng.randrange(1, 120) * 2 + 1  # odd positive
        assert kronecker(a, n) == jacobi(a, n), (a, n)


def test_kronecker_special_cases():
    assert kronecker(1, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1  # (a|0) = 1 iff a = +-1
    # (a|2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    # negative n: sign from the sign of a
    assert kronecker(-3, -5) == -kronecker(-3, 5)
    assert kronecker(3, -5) == kronecker(3, 5)


def test_kronecker_multiplicativity():
    rng = random.Random(9)
    for _ in range(200):
        a, b = rng.randrange(-40, 41), rng.randrange(-40, 41)
        n = rng.randrange(1, 80) * 2 + 1
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def _no_square_factor(m):
    return m != 0 and all(m % (k * k) for k in range(2, math.isqrt(abs(m)) + 1))


def _fundamental_oracle(d):
    """d = 1; or d = 1 mod 4 squarefree; or d = 4m, m = 2, 3 mod 4 squarefree."""
    if d == 1:
        return True
    if d % 4 == 1:
        return _no_square_factor(d)
    return (d % 4 == 0 and (d // 4) % 4 in (2, 3)
            and _no_square_factor(d // 4))


def test_fundamental_discriminants():
    fundamentals = {1, -3, -4, 5, -7, 8, -8, -11, 12, 13, -15, -19, -20,
                    21, -23, -24, 24, 28, -31, 33, -40, -39, -35, 17, 29, 37,
                    40}
    for d in range(-40, 41):
        assert is_fundamental_discriminant(d) == (d in fundamentals), d
    for d in range(-9999, 10000):
        assert is_fundamental_discriminant(d) == _fundamental_oracle(d), d
    for d in (0, 2, 3, -2, -5, -9, -12, -16, 16, 25):
        assert not is_fundamental_discriminant(d), d


def test_prime_discriminant():
    assert prime_discriminant(5) == 5      # 5 = 1 mod 4
    assert prime_discriminant(3) == -3
    assert prime_discriminant(7) == -7
    assert prime_discriminant(13) == 13


# -- character structure ---------------------------------------------------

def test_quadratic_character_values():
    chi = DirichletCharacter.quadratic(-4)
    assert chi.conductor == 4
    assert chi.modulus == 4
    assert chi.is_odd
    assert chi.is_rational
    vals = [chi(a) for a in range(8)]
    assert vals == [0, 1, 0, -1, 0, 1, 0, -1]


def test_trivial_character():
    one = DirichletCharacter.trivial()
    assert one.conductor == 1
    assert one(0) == 1  # modulus 1: everything coprime
    assert not one.is_odd


def test_parity():
    assert DirichletCharacter.quadratic(-3).is_odd
    assert not DirichletCharacter.quadratic(5).is_odd
    assert DirichletCharacter.teichmuller_power(5, 1).is_odd
    assert not DirichletCharacter.teichmuller_power(5, 2).is_odd


def test_teichmuller_power_canonicalization():
    # omega^((p-1)/2) is the quadratic character of the prime discriminant
    for p in (5, 7, 13):
        half = DirichletCharacter.teichmuller_power(p, (p - 1) // 2)
        quad = DirichletCharacter.quadratic(prime_discriminant(p))
        assert half == quad, p
    # omega^(p-1) is trivial
    assert DirichletCharacter.teichmuller_power(5, 4) == \
        DirichletCharacter.trivial()
    # at p=3, omega is the quadratic character mod 3
    assert DirichletCharacter.teichmuller_power(3, 1) == \
        DirichletCharacter.quadratic(-3)


def test_constructor_moves_p_star_into_omega():
    # chi_d omega^j at every a prime to dp, p | d included: the constructor
    # is the one place that moves p* between disc and omega^((p-1)/2)
    discs = [d for d in range(-59, 60) if is_fundamental_discriminant(d)]
    for p in (3, 5, 7):
        pm = p ** 6
        lifts = [0] + [teichmuller_lift(r, p, 6) for r in range(1, p)]
        for d in discs:
            units = [a for a in range(1, 2 * abs(d) * p + 1)
                     if math.gcd(a, d * p) == 1]
            for j in range(p - 1):
                chi = DirichletCharacter(d, p, j)
                for a in units:
                    want = kronecker(d, a) * pow(lifts[a % p], j, pm) % pm
                    assert chi.residue(a, 6) % pm == want, (d, p, j, a)


def test_character_product_folds_discriminants():
    c24 = DirichletCharacter.quadratic(-24)
    c8 = DirichletCharacter.quadratic(-8)
    prod = c24 * c8
    # (-24|.)(-8|.) has core 12 with the primes 2, 3 already dividing 12
    assert prod == DirichletCharacter.quadratic(12)
    # chi * chi^{-1} is trivial-as-function on coprime arguments
    chi = DirichletCharacter.quadratic(-7)
    sq = chi * chi
    for a in range(1, 20):
        if a % 7:
            assert sq(a) == 1


def test_product_tracks_lost_primes_as_zeros():
    chi3 = DirichletCharacter.quadratic(-3)
    sq = chi3 * chi3
    # the square is trivial as a character but still vanishes at 3
    assert sq(3) == 0
    assert sq(2) == 1
    assert sq.conductor == 1
    assert sq.modulus == 3


def test_irrational_values_need_precision():
    om = DirichletCharacter.teichmuller_power(5, 1)
    with pytest.raises(PrecisionError):
        om(2)
    val = om(2, prec=10)
    assert isinstance(val, PadicNumber)
    assert (val ** 4).residue(10) == 1
    with pytest.raises(DomainError):
        DirichletCharacter(-4, 5, 1)(3, 0)


def test_padic_values_are_teichmuller_powers():
    # chi(a) = kronecker(disc, a) omega(a)^e: the same value and declared
    # precision as the PadicNumber power of the Teichmueller lift
    for p in (3, 5, 7, 11):
        for e in range(1, p - 1):
            for disc in (1, -4):
                chi = DirichletCharacter(disc, p, e)
                for N in (1, 4, 12, 50):
                    for a in range(-20, 40):
                        got = chi(a, N)
                        if a % p == 0 or disc == -4 and a % 2 == 0:
                            assert got == 0
                            continue
                        want = teichmuller(a, p, N) ** e * kronecker(disc, a)
                        if chi.is_rational:  # e = (p-1)/2 folds into disc
                            assert got == want, (p, e, disc, N, a)
                            continue
                        assert (got.v, got.unit, got.nabs) == \
                            (want.v, want.unit, want.nabs), (p, e, disc, N, a)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_residue_is_the_value_as_an_int(p):
    # residue is chi(a) as an int: the Kronecker value of a real character,
    # the residue of a p-adic value at its precision, 0 off the units
    quad = DirichletCharacter.quadratic(-4)
    om = DirichletCharacter.teichmuller_power(p)
    chars = [quad, DirichletCharacter.quadratic(prime_discriminant(p)),
             quad.raise_modulus({3, p}), om, om.raise_modulus({2}),
             quad * om, DirichletCharacter.quadratic(-3) * om.inverse(),
             quad.teichmuller_twist(2, p)]
    # omega_3 is quadratic, so every character at p = 3 is real
    assert {chi.is_rational for chi in chars} == {True, p == 3}
    for chi in chars:
        for a in range(1, 2 * chi.modulus + 1):
            if math.gcd(a, chi.modulus) != 1:
                assert chi.residue(a) == chi.residue(a, 6) == 0, (chi, a)
                continue
            if chi.is_rational:
                assert chi.residue(a) == int(chi(a)) in (1, -1), (chi, a)
                assert chi.residue(a, 6) == chi.residue(a), (chi, a)
                continue
            for N in (1, 6, 12):
                assert chi.residue(a, N) == chi(a, N).residue(N), (chi, a, N)
            with pytest.raises(PrecisionError):
                chi.residue(a)
            with pytest.raises(DomainError):
                chi.residue(a, 0)


def test_teichmuller_twist_always_carries_p():
    chi = DirichletCharacter.quadratic(-4)
    tw = chi.teichmuller_twist(1, 5)
    assert tw.modulus % 5 == 0
    # twisting by j = 0 still forces the value 0 at p
    tw0 = chi.teichmuller_twist(4, 5)  # omega^4 = trivial at p=5
    assert tw0(5) == 0
    assert tw0.modulus % 5 == 0
    # (disc, p, om_exp, zeros) of each twist
    def fields(c):
        return (c.disc, c.p, c.om_exp, c.zeros)
    # fold: omega_5^2 is the quadratic character mod 5, so chi_-4 omega^2 = chi_-20
    assert fields(chi.teichmuller_twist(2, 5)) == (-20, None, 0, frozenset())
    # unfold: 5 divides -15, so chi_-15 = chi_-3 omega_5^2 before the twist
    chi15 = DirichletCharacter.quadratic(-15)
    assert fields(chi15.teichmuller_twist(1, 5)) == (-3, 5, 3, frozenset())
    assert fields(chi15.teichmuller_twist(2, 5)) == (-3, None, 0, frozenset({5}))


def test_teichmuller_twist_needs_the_character_s_own_prime():
    # a character carrying omega_q twists only at q; a real one at any p
    om7 = DirichletCharacter.teichmuller_power(7)
    with pytest.raises(DomainError, match=r"omega_7.*omega_3"):
        om7.teichmuller_twist(1, 3)
    assert om7.teichmuller_twist(1, 7) == om7 * om7
    for d in (-3, -4, -7, -20):
        chi = DirichletCharacter.quadratic(d)
        for p in (3, 5, 7, 11, 13):
            for j in (-1, 0, 1, 2):
                assert chi.teichmuller_twist(j, p).modulus % p == 0, (d, p, j)


def test_raise_modulus():
    chi = DirichletCharacter.quadratic(-3)
    raised = chi.raise_modulus({5})
    assert raised(5) == 0
    assert raised(2) == chi(2)
    assert raised.conductor == 3
    assert raised.modulus == 15


def test_inverse():
    chi = DirichletCharacter.quadratic(-7)
    assert chi.inverse() == chi
    om = DirichletCharacter.teichmuller_power(7, 2)
    inv = om.inverse()
    assert om * inv == DirichletCharacter.teichmuller_power(7, 0).raise_modulus({7}) \
        or (om * inv).conductor == 1


# -- Bernoulli machinery ---------------------------------------------------

def test_bernoulli_numbers_classical_convention():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)   # the minus convention
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def _oracle_table_valid(table, start=1):
    """The all-terms check: every j <= n in every row, zero entries included."""
    if not table or table[0] != 1:
        return False
    lcm = math.lcm(*(b.denominator for b in table))
    nums = [b.numerator * (lcm // b.denominator) for b in table]
    for n in range(start, len(nums)):
        if sum(comb(n + 1, j) * nums[j] for j in range(n + 1)) != 0:
            return False
    return True


def test_bernoulli_check_skipping_zeros_matches_the_oracle():
    # the true table and every single-entry perturbation of it, including a
    # nonzero odd entry (B_3 = 1/7, B_1 = +1/2) and a zeroed even one
    true = [BernoulliCache().number(n) for n in range(121)]
    assert characters._bernoulli_table_valid(true)
    assert _oracle_table_valid(true)
    for n in range(121):
        for bad in {true[n] + 1, true[n] + Fraction(1, 7), -true[n],
                    Fraction(0), Fraction(1, 7)} - {true[n]}:
            table = true[:n] + [bad] + true[n + 1:]
            for start in (1, 60):
                assert (characters._bernoulli_table_valid(table, start)
                        == _oracle_table_valid(table, start)), (n, bad, start)
            assert not characters._bernoulli_table_valid(table), (n, bad)


def test_bernoulli_check_rejects_a_bad_odd_entry_the_even_rows_miss():
    # B_n = 1/7 at an odd n, and B_{n+1} moved so that row n + 1 still
    # holds: every even row passes, and only row 1 (n = 1) or the zero test
    # (n > 1) rejects the table, as the odd row n of the full recursion does
    true = [BernoulliCache().number(n) for n in range(42)]
    for n in range(1, 41, 2):
        shift = (Fraction(1, 7) - true[n]) * comb(n + 2, n) / (n + 2)
        table = true[:n] + [Fraction(1, 7), true[n + 1] - shift]
        assert not _oracle_table_valid(table), n
        assert not characters._bernoulli_table_valid(table), n


def test_bernoulli_table_known_values():
    cache = BernoulliCache()
    known = {
        20: Fraction(-174611, 330),
        30: Fraction(8615841276005, 14322),
        40: Fraction(-261082718496449122051, 13530),
        50: Fraction(495057205241079648212477525, 66),
        60: Fraction(-1215233140483755572040304994079820246041491, 56786730),
    }
    for n, b in known.items():
        assert cache.number(n) == b, n
    # von Staudt-Clausen: the denominator of B_2k is the product of the
    # primes q with (q - 1) | 2k; odd indices above 1 vanish
    for n in range(2, 121):
        if n % 2:
            assert cache.number(n) == 0, n
            continue
        primes = [q for q in range(2, n + 2)
                  if all(q % r for r in range(2, q)) and n % (q - 1) == 0]
        assert cache.number(n).denominator == prod(primes), n
        assert (cache.number(n) > 0) == (n % 4 == 2), n


def test_bernoulli_computed_count_counts_appended_entries():
    ascending = BernoulliCache()
    for n in range(11):
        ascending.number(n)
    assert ascending.computed_count == 10   # B_0 is seeded
    jump = BernoulliCache()
    jump.number(40)
    assert jump.computed_count == 40
    jump.number(25)
    assert jump.computed_count == 40        # served from the table
    jump.number(41)
    assert jump.computed_count == 41
    assert [jump.number(n) for n in range(11)] == \
        [ascending.number(n) for n in range(11)]


def test_bernoulli_fresh_rows_are_checked(monkeypatch):
    good = characters._bernoulli_range

    def off_by_a_little(start, n):
        rows = good(start, n)
        rows[-1] += Fraction(1, 10 ** 30)
        return rows

    cache = BernoulliCache()
    cache.number(6)
    monkeypatch.setattr(characters, "_bernoulli_range", off_by_a_little)
    with pytest.raises(ConsistencyError):
        cache.number(12)
    assert cache.computed_count == 6
    monkeypatch.setattr(characters, "_bernoulli_range", good)
    assert cache.number(12) == Fraction(-691, 2730)


def test_gen_bernoulli_quadratic_values():
    chi4 = DirichletCharacter.quadratic(-4)
    # B_{1,chi_{-4}} = -1/2, B_{3,chi_{-4}} = 3/2
    assert gen_bernoulli(1, chi4) == Fraction(-1, 2)
    assert gen_bernoulli(3, chi4) == Fraction(3, 2)
    chi3 = DirichletCharacter.quadratic(-3)
    assert gen_bernoulli(1, chi3) == Fraction(-1, 3)


def test_gen_bernoulli_trivial_is_classical():
    one = DirichletCharacter.trivial()
    for n in (1, 2, 4, 6):
        assert gen_bernoulli(n, one) == bernoulli_number(n), n


def test_gen_bernoulli_respects_modulus():
    # raising the modulus changes B_{n,chi} by the Euler-like factor:
    # B_{1, chi raised at q} = B_{1,chi} - chi(q) * ... verified numerically
    chi = DirichletCharacter.quadratic(-4)
    raised = chi.raise_modulus({3})
    # direct sum over the larger modulus must agree with the library
    f = raised.modulus
    total = Fraction(0)
    for a in range(1, f + 1):
        v = raised(a)
        if v:
            total += v * (Fraction(a, f) - Fraction(1, 2))
    assert gen_bernoulli(1, raised) == total


# B_0(x)..B_6(x), written out: an oracle that uses no Bernoulli table
_BERNOULLI_POLYS = [
    [Fraction(1)],
    [Fraction(-1, 2), 1],
    [Fraction(1, 6), -1, 1],
    [0, Fraction(1, 2), Fraction(-3, 2), 1],
    [Fraction(-1, 30), 0, 1, -2, 1],
    [0, Fraction(-1, 6), 0, Fraction(5, 3), Fraction(-5, 2), 1],
    [Fraction(1, 42), 0, Fraction(-1, 2), 0, Fraction(5, 2), -3, 1],
]


def _per_residue(n, chi, prec=None):
    """f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f), term by term."""
    f = chi.modulus
    total = PadicNumber.zero(chi.p) if prec else Fraction(0)
    for a in range(1, f + 1):
        c = chi(a, prec)
        if isinstance(c, Fraction) and c == 0:
            continue
        x = Fraction(a, f)
        total = total + c * sum(k * x ** i
                                for i, k in enumerate(_BERNOULLI_POLYS[n]))
    return total * Fraction(f) ** (n - 1)


@pytest.mark.parametrize("chi", [
    DirichletCharacter.quadratic(-4),
    DirichletCharacter.quadratic(-3),
    DirichletCharacter.quadratic(5),
    DirichletCharacter.quadratic(-20),
    DirichletCharacter.quadratic(-4).raise_modulus({3, 5}),
    DirichletCharacter.quadratic(-7).teichmuller_twist(0, 3),
    DirichletCharacter.trivial().raise_modulus({5}),
], ids=repr)
def test_gen_bernoulli_against_per_residue_sum(chi):
    for n in range(1, 7):
        assert gen_bernoulli(n, chi) == _per_residue(n, chi), n


@pytest.mark.parametrize("chi", [
    DirichletCharacter.teichmuller_power(5, 1),
    DirichletCharacter.teichmuller_power(7, 5),
    DirichletCharacter.quadratic(-4).teichmuller_twist(1, 5),
    DirichletCharacter.quadratic(-3).teichmuller_twist(1, 7),
    DirichletCharacter.quadratic(-3).teichmuller_twist(-1, 5).raise_modulus({2}),
], ids=repr)
def test_gen_bernoulli_padic_against_per_residue_sum(chi):
    # the same value at the same declared precision as the term-by-term sum
    for n in range(1, 7):
        for prec in (4, 9):
            got = gen_bernoulli(n, chi, prec)
            want = _per_residue(n, chi, prec)
            assert (got.v, got.unit, got.nabs) == \
                (want.v, want.unit, want.nabs), (n, prec)


def test_gen_bernoulli_irrational_path():
    om = DirichletCharacter.teichmuller_power(5, 1)
    val = gen_bernoulli(1, om, prec=10)
    assert isinstance(val, PadicNumber)
    # B_{1, omega} = sum over a mod 5p? sanity: p-integral
    assert val.valuation >= 0


def test_bernoulli_cache_roundtrip(tmp_path):
    path = tmp_path / "bern.json"
    cache = BernoulliCache(str(path))
    v = cache.number(10)
    assert v == Fraction(5, 66)
    assert cache.computed_count > 0
    cache.save()
    cache2 = BernoulliCache(str(path))
    assert cache2.number(10) == Fraction(5, 66)
    assert cache2.computed_count == 0  # served from disk


def test_bernoulli_cache_rejects_corruption(tmp_path):
    path = tmp_path / "bern.json"
    cache = BernoulliCache(str(path))
    cache.number(8)
    cache.save()
    # tamper with an entry
    data = json.loads(path.read_text())
    data["entries"][2][1] = "9999/7"
    path.write_text(json.dumps(data))
    fresh = BernoulliCache(str(path))
    assert fresh.number(8) == bernoulli_number(8)  # recomputed, not poisoned
    assert fresh.computed_count > 0


@pytest.mark.parametrize("text", [
    '{"version": 1, "entries": [[0, "1/0"]]}',  # zero denominator
    '{"version": 1, "entries": [[0, 1]]}',      # entry is not a string
    '{"version": 1, "entries": [[1, "1"]]}',    # entries out of order
    '[1, 2]',                                   # top level is not an object
])
def test_bernoulli_cache_discards_malformed_file(tmp_path, text):
    path = tmp_path / "bern.json"
    path.write_text(text)
    fresh = BernoulliCache(str(path))
    assert fresh.number(8) == bernoulli_number(8)
    assert fresh.computed_count > 0


def test_bernoulli_cache_rejects_tiny_perturbation(tmp_path):
    # the integer-numerator check is exact: 10^-40 off one entry is caught
    path = tmp_path / "bern.json"
    cache = BernoulliCache(str(path))
    cache.number(40)
    cache.save()
    data = json.loads(path.read_text())
    b30 = Fraction(data["entries"][30][1]) + Fraction(1, 10 ** 40)
    data["entries"][30][1] = f"{b30.numerator}/{b30.denominator}"
    path.write_text(json.dumps(data))
    fresh = BernoulliCache(str(path))
    assert fresh.number(30) == bernoulli_number(30)
    assert fresh.computed_count > 0


def test_bernoulli_cache_rejects_wrong_version(tmp_path):
    path = tmp_path / "bern.json"
    cache = BernoulliCache(str(path))
    cache.number(6)
    cache.save()
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    fresh = BernoulliCache(str(path))
    assert fresh.computed_count == 0
    fresh.number(6)
    assert fresh.computed_count > 0


def test_shared_cache_hookup(tmp_path):
    cache = BernoulliCache(str(tmp_path / "b.json"))
    set_shared_cache(cache)
    try:
        bernoulli_number(14)
        assert cache.computed_count > 0
    finally:
        set_shared_cache(None)


def test_character_equality_and_hash():
    a = DirichletCharacter.quadratic(-4)
    b = DirichletCharacter.quadratic(-4)
    assert a == b and hash(a) == hash(b)
    assert a != DirichletCharacter.quadratic(-3)


def test_invalid_inputs():
    with pytest.raises(DomainError,
                       match="-5 is not a fundamental discriminant"):
        DirichletCharacter.quadratic(-5)
    with pytest.raises(DomainError):
        DirichletCharacter.teichmuller_power(4, 1)  # not an odd prime


# -- input guards ----------------------------------------------------------

@pytest.mark.parametrize("call, exc, message", [
    (lambda: characters._fold_discriminant(0), DomainError,
     "zero discriminant"),
    (lambda: DirichletCharacter(1, 5, 1) * DirichletCharacter(1, 7, 1),
     DomainError, "characters live at different primes"),
    (lambda: DirichletCharacter(-4, None, 0, frozenset({9})), DomainError,
     "forced zero at non-prime 9"),
    (lambda: BernoulliCache().number(-1), DomainError,
     "Bernoulli numbers need n >= 0"),
    (lambda: gen_bernoulli(0, DirichletCharacter.quadratic(-4)), DomainError,
     "gen_bernoulli needs n >= 1"),
    (lambda: gen_bernoulli(2, DirichletCharacter(1, 5, 1)), PrecisionError,
     "character value is p-adic; a precision is required"),
], ids=["zero-disc", "two-primes", "non-prime-zero", "negative-n",
        "gen-n-0", "gen-no-prec"])
def test_input_guards(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


@pytest.mark.parametrize("op", [operator.mul, operator.eq], ids=["mul", "eq"])
def test_foreign_operands(op):
    # arithmetic with an operand of a foreign type raises TypeError; == is False
    x = DirichletCharacter.quadratic(-4)
    if op is operator.eq:
        assert op(x, object()) is False
    else:
        with pytest.raises(TypeError):
            op(x, object())
