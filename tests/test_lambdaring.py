"""Truncated Iwasawa algebra: specializations, the cyclotomic character."""

import operator
from fractions import Fraction

import pytest

from grossstark.errors import DomainError, IndeterminateOrderError
from grossstark.lambdaring import (DEFAULT_TRUNCATION, LambdaElement,
                                   _log_u, epsilon_char, nu_k, pi_normalize,
                                   topological_generator, uniformizer)
from grossstark.padic import PadicNumber, angle_bracket, plog, v_p

from test_precision import check_row


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_topological_generator_is_one_mod_p_only(p):
    # u = 1 mod p and u != 1 mod p^2: u generates the principal units
    u = topological_generator(p)
    assert u % p == 1 and u % p ** 2 != 1


@pytest.mark.parametrize("p, N", [(3, 2), (3, 20), (5, 12), (13, 7)])
def test_log_u_matches_the_series(p, N):
    # log(1 + p) = sum_k (-1)^(k+1) p^k / k, whose terms past k = 3N have
    # valuation k - v_p(k) > N
    series = sum(Fraction((-1) ** (k + 1) * p ** k, k) for k in range(1, 3 * N))
    assert _log_u(p, N) == PadicNumber.from_exact(p, series, N)


def test_coefficients_are_padded_and_cut_at_M():
    short = LambdaElement(5, [3, 0, Fraction(1, 2)], M=5, N=6)
    assert len(short.coeffs) == 6
    assert short.coeff(0) == PadicNumber.from_exact(5, 3, 6)
    assert short.coeff(2) == PadicNumber.from_exact(5, Fraction(1, 2), 6)
    assert all(short.coeff(i).exact_zero for i in (1, 3, 4, 5))
    long = LambdaElement(5, range(1, 10), M=3, N=6)
    assert [c.residue(6) for c in long.coeffs] == [1, 2, 3, 4]


def test_nu_k_on_T():
    # nu_k(T) = u^{k-1} - 1; at k = 2 that is exactly p
    for p in (3, 5, 7):
        T = LambdaElement(p, [0, 1], N=12)
        v = nu_k(T, 2)
        assert (v - p).is_zero_to_precision()
        assert v.valuation == 1
        assert nu_k(T, 1).exact_zero or nu_k(T, 1).is_zero_to_precision()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nu_k_matches_the_exact_power(p):
    # nu_k(T) = u^{k-1} - 1 against the exact Fraction power: its residue to
    # the declared (M + 1) v digits and its valuation v, at every k that
    # lambda uses and the precision table's k = 0 and -2
    M = 16
    T = LambdaElement(p, [0, 1], M, N=400)
    for k in (1, 2, 3, 5, p, 1 + p ** 2, 1 + p ** 3, 0, -2):
        got = nu_k(T, k)
        want = Fraction(topological_generator(p)) ** (k - 1) - 1
        if k == 1:
            assert got.exact_zero and want == 0
            continue
        v = v_p(want, p)
        assert got.valuation == v, (k, got)
        assert got.precision == (M + 1) * v, (k, got)
        pe = p ** got.precision
        assert got.residue(got.precision) == \
            want.numerator * pow(want.denominator, -1, pe) % pe, (k, got)


def test_nu_k_needs_an_int_weight():
    T = LambdaElement(5, [0, 1], N=12)
    for k in (Fraction(2), 2.0, PadicNumber.from_exact(5, 2, 12)):
        with pytest.raises(DomainError):
            nu_k(T, k)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_nu_k_declared_precision_is_real(p):
    # the nu_k row of the precision table at this p
    check_row("nu_k", lambda case: case[0] == p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nu_k_declared_precision_survives_a_longer_truncation(p):
    # the tail cap (M + 1) v_p(u^{k-1} - 1) is the bound of the discarded
    # terms: eight more terms of the series agree to the smaller precision
    for x in (2, 4, 7, 10):
        if x % p == 0:
            continue
        for M in (4, 8, 16):
            for N in (8, 12):
                short = epsilon_char(x, p, M, N)
                long = epsilon_char(x, p, M + 8, N)
                for k in (2, 3, 5, p, p + 1):
                    a, b = nu_k(short, k), nu_k(long, k)
                    to = min(a.precision, b.precision)
                    assert a.same_to(b, to), (x, M, N, k, a, b)


def test_ring_arithmetic():
    p = 5
    T = LambdaElement(p, [0, 1], N=12)
    h = (T + 1) * (T - 1)
    want = T * T - 1
    for i in range(DEFAULT_TRUNCATION + 1):
        d = h.coeff(i) - want.coeff(i)
        assert d.exact_zero or d.is_zero_to_precision()
    # scalar coercion paths
    g = T * Fraction(1, 2) + 3
    assert g.coeff(0).residue(4) == 3
    assert g.coeff(1).residue(4) == pow(2, -1, 5 ** 4)
    g = 1 - T
    assert g.coeff(0).residue(4) == 1
    assert g.coeff(1).residue(4) == 5 ** 4 - 1


def test_truncation_mismatch_rejected():
    a = LambdaElement(5, [0, 1], 8, 6)
    b = LambdaElement(5, [0, 1], 16, 6)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        LambdaElement(3, [0, 1], N=6) * LambdaElement(5, [0, 1], N=6)


def test_epsilon_of_generator_is_one_plus_T():
    # epsilon(u) has exponent exactly 1: coefficients (1, 1, 0, 0, ...)
    for p in (3, 5, 7):
        e = epsilon_char(topological_generator(p), p)
        assert (e.coeff(0) - 1).is_zero_to_precision()
        assert (e.coeff(1) - 1).is_zero_to_precision()
        for i in range(2, e.M + 1):
            assert e.coeff(i).is_zero_to_precision()


def test_epsilon_specializes_to_angle_bracket_power():
    N = 12
    grid = {3: (2, 5, 7), 5: (2, 3, 6), 7: (2, 3, 10)}
    for p, xs in grid.items():
        for x in xs:
            e = epsilon_char(x, p, N=N)
            for k in dict.fromkeys((1, 2, 3, 5, 1 + (p - 1))):
                got = nu_k(e, k)
                want = angle_bracket(x, p, int(got.precision) + 2) ** (k - 1)
                diff = got - want
                assert diff.exact_zero or diff.is_zero_to_precision() \
                    or diff.valuation >= N - 3, (p, x, k, diff)


def test_epsilon_locked_value():
    # nu_3(epsilon(6)) = <6>^2 at p = 5; <6> = 6/omega(6) = 6 exactly
    # (6 = 1 + 5 is already principal), so the value is 36.
    e = epsilon_char(6, 5, N=12)
    got = nu_k(e, 3)
    assert (got - 36).is_zero_to_precision() or (got - 36).valuation >= 9


def test_epsilon_is_multiplicative():
    p, N = 7, 10
    a, b = 2, 3
    ea, eb = epsilon_char(a, p, N=N), epsilon_char(b, p, N=N)
    eab = epsilon_char(a * b, p, N=N)
    prod = ea * eb
    for i in range(5):
        d = prod.coeff(i) - eab.coeff(i)
        assert d.exact_zero or d.is_zero_to_precision() or d.valuation >= N - 3


def test_epsilon_rejects_non_unit():
    with pytest.raises(DomainError):
        epsilon_char(5, 5)
    with pytest.raises(DomainError):
        epsilon_char(PadicNumber.from_exact(5, 10, 8), 5)


def test_pi_normalize_exact_order():
    # h = pi^3 * unit: order 3 comes back, leading coefficient the unit
    p, N = 5, 12
    lug = plog(PadicNumber.from_exact(p, 1 + p, N + 4))
    pi = LambdaElement(p, [PadicNumber.zero(p), lug.inverse()])
    unit = LambdaElement.constant(p, 7, N=N)
    h = pi * pi * pi * unit
    n, hp = pi_normalize(h)
    assert n == 3
    lead = hp.coeff(0)
    assert (lead - 7).is_zero_to_precision() or (lead - 7).valuation >= N - 2


def test_pi_normalize_indeterminate():
    p = 5
    tiny = PadicNumber(p, 6, 1, 6)  # O(p^6) as a value: zero to precision
    h = LambdaElement(p, [tiny.truncate(6) - tiny.truncate(6)])
    with pytest.raises(IndeterminateOrderError):
        pi_normalize(h)


def test_pi_normalize_finite_difference_bridge():
    # the leading coefficient of h = pi^n h' matches the n-th derivative
    # of k -> nu_k(h) at k = 1 read off through finite differences:
    # nu_k(h) / nu_k(pi)^n -> nu_1(h') as k -> 1 p-adically.
    p, N = 5, 12
    lug = plog(PadicNumber.from_exact(p, 1 + p, N + 6))
    pi = LambdaElement(p, [PadicNumber.zero(p), lug.inverse()])
    e = epsilon_char(3, p, N=N)
    h = (e - e.coeff(0)) * 11  # order exactly 1 in pi
    n, hp = pi_normalize(h)
    assert n == 1
    lead = hp.coeff(0)
    for m in (2, 3):
        k = 1 + p ** m
        num = nu_k(h, k)
        den = nu_k(pi, k) ** n
        fd = num / den
        diff = fd - lead
        assert diff.exact_zero or diff.is_zero_to_precision() \
            or diff.valuation >= m - 1, (m, diff)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pi_normalize_declares_only_known_digits(p):
    # nu_k(h') for h = pi^n h' agrees, to every digit it declares, with the
    # independent nu_k(h) / nu_k(pi)^n taken twenty terms further
    for x in [x for x in range(2, 20) if x % p][:6]:
        for M in (4, 8):
            e, long = epsilon_char(x, p, M, 30), epsilon_char(x, p, M + 20, 30)
            n, hp = pi_normalize(e - e.coeff(0))
            h = long - long.coeff(0)
            for k in (1 + p, 1 + p * p):
                got, num = nu_k(hp, k), nu_k(h, k)
                pi_k = nu_k(uniformizer(p, M + 20, num.precision + 4), k)
                assert got.same_to(num / pi_k ** n, got.precision), \
                    (x, M, k, got.precision)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: LambdaElement(5, [1]), DomainError,
     "exact coefficients need a target precision N"),
], ids=["exact-without-N"])
def test_input_guards(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
def test_foreign_operands(op):
    # arithmetic with an operand of a foreign type raises TypeError
    with pytest.raises(TypeError):
        op(LambdaElement.constant(5, 2, N=4), object())
