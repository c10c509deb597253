"""Eisenstein q-expansions, Hecke action, the U_p shift law."""

import operator
from fractions import Fraction

import pytest

from grossstark import qexp
from grossstark.characters import DirichletCharacter
from grossstark.errors import ConsistencyError, DomainError, PrecisionError
from grossstark.lfunctions import classical_L_at_nonpositive
from grossstark.padic import is_zero, teichmuller
from grossstark.qexp import (QExpansion, build_Fk, eisenstein,
                             eisenstein_two_char, hecke_T, hecke_U,
                             hida_surrogate, verify_up_relation)


def chi(d):
    return DirichletCharacter.quadratic(d)


def divisor_sum(n, char, k, prec=None):
    return sum(char(d, prec) * Fraction(d) ** (k - 1) for d in range(1, n + 1)
               if n % d == 0)


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _two_char_divisor_loop(k, eta, psi, n_terms, prec=None):
    """The coefficients of E_k(eta, psi) by trial division, one n at a time:
    the oracle for the sieve in `eisenstein_two_char`."""
    coeffs = [Fraction(0)]
    for n in range(1, n_terms + 1):
        acc = Fraction(0)
        for d in _divisors(n):
            a = eta(n // d, prec)
            if is_zero(a):
                continue
            b = psi(d, prec)
            if is_zero(b):
                continue
            acc = acc + a * b * Fraction(d) ** (k - 1)
        coeffs.append(acc)
    return tuple(coeffs)


def same_coeffs(got, want):
    """Equal coefficient tuples, entry types included (int, Fraction, PadicNumber)."""
    return ([type(c) for c in got] == [type(c) for c in want]
            and list(got) == list(want))


def test_eisenstein_weight1_values():
    E = eisenstein(1, chi(-4), n_terms=50)
    assert (E.weight, E.character.modulus, E.reliable_to) == (1, 4, 50)
    assert E.coeff(0) == Fraction(1, 4)  # L(chi_{-4}, 0) / 2
    # c(n) counts divisors 1 mod 4 minus divisors 3 mod 4
    for n in range(1, 51):
        assert E.coeff(n) == divisor_sum(n, chi(-4), 1), n
    assert E.coeff(5) == 2
    assert E.coeff(25) == 3


def test_eisenstein_matches_divisor_oracle():
    # whole tuples, constant term included, against one divisor sum per n:
    # a Fraction c(0), then ints for a rational character (the divisor sums
    # are integers) and PadicNumbers for a p-adic one
    n_terms = 300
    chars = [(chi(-4), None), (chi(-23), None), (chi(5), None), (chi(12), None),
             (DirichletCharacter.teichmuller_power(5, 1), 10),
             (DirichletCharacter.teichmuller_power(7, 2), 10),
             (DirichletCharacter(-4, 7, 1), 12), (DirichletCharacter(-4, 7, 2), 12)]
    seen = set()
    for k in range(1, 6):
        for char, prec in chars:
            if char.parity != (-1) ** k:
                continue
            for support in ((), (3,), (5, 7)):
                E = eisenstein(k, char, support, n_terms, prec)
                etaJ = char.raise_modulus(support)
                want = [classical_L_at_nonpositive(etaJ, 1 - k, prec) * Fraction(1, 2)]
                want += [divisor_sum(n, etaJ, k, prec) for n in range(1, n_terms + 1)]
                if etaJ.is_rational:
                    assert all(c.denominator == 1 for c in want[1:])
                    want[1:] = [int(c) for c in want[1:]]
                assert same_coeffs(E.coeffs, want), (k, char, support)
                seen.add((k, char.is_rational, bool(support)))
    assert len(seen) == 5 * 2 * 2  # every weight, both value types, raised and not


def test_eisenstein_evaluates_each_d_once(monkeypatch):
    # the sieve takes one character value per d, in ascending order; the
    # constant term (a sum over the modulus) is stubbed out of the count.
    # residue is the one place a value is computed (__call__ goes through it)
    calls = []
    value = DirichletCharacter.residue

    def counted(self, a, prec=None):
        calls.append(a)
        return value(self, a, prec)

    monkeypatch.setattr(DirichletCharacter, "residue", counted)
    monkeypatch.setattr(qexp, "classical_L_at_nonpositive",
                        lambda *args: Fraction(0))
    n = 400
    for char, prec in ((chi(-4), None), (DirichletCharacter(-4, 7, 2), 10)):
        assert char.is_rational == (prec is None)
        calls.clear()
        eisenstein(1, char, (), n, prec)
        assert calls, char
        assert len(calls) <= n + 1, char
        assert calls == sorted(set(calls)), char
        calls.clear()
        eisenstein_two_char(2, char, chi(-3), n, prec)
        assert calls, char
        assert len(calls) <= 2 * n + 1, char


def test_eisenstein_higher_weight():
    E = eisenstein(3, chi(-4), n_terms=30)
    assert E.coeff(0) == Fraction(-1, 4)  # L(chi_{-4}, -2)/2 = -1/4
    for n in (1, 6, 12, 28):
        assert E.coeff(n) == divisor_sum(n, chi(-4), 3)


def test_eisenstein_parity_guard():
    with pytest.raises(DomainError):
        eisenstein(1, chi(12))   # even character, odd weight
    with pytest.raises(DomainError):
        eisenstein(2, chi(-4))   # odd character, even weight


def test_eisenstein_weight2_level_one_rejected():
    with pytest.raises(DomainError):
        eisenstein(2, DirichletCharacter.trivial())


def test_eisenstein_raised_modulus_drops_divisors():
    E = eisenstein(1, chi(-4), support=(5,), n_terms=40)
    assert E.character.modulus == 20
    # divisors divisible by 5 no longer contribute
    assert E.coeff(5) == 1
    assert E.coeff(25) == 1
    assert E.coeff(13) == 2  # untouched


def test_eisenstein_padic_character():
    # omega^2 at p = 5 is even; coefficients are Teichmueller evaluations
    om2 = DirichletCharacter.teichmuller_power(5, 2)
    E = eisenstein(2, om2, n_terms=10, prec=10)
    w2 = teichmuller(2, 5, 10)
    got = E.coeff(2) - (1 + w2 * w2 * 2)
    assert got.is_zero_to_precision()


def test_two_char_eisenstein():
    # c(n) = sum_{d|n} eta(n/d) psi(d) d^{k-1}, c(0) = 0
    eta, psi = chi(-4), chi(-3)
    E = eisenstein_two_char(2, eta, psi, n_terms=30)
    assert E.coeff(0) == 0
    for n in (1, 2, 6, 12):
        want = sum(eta(n // d) * psi(d) * Fraction(d) for d in range(1, n + 1)
                   if n % d == 0)
        assert E.coeff(n) == want
    assert E.character == chi(-4) * chi(-3)


def test_two_char_matches_divisor_loop():
    n_terms = 300
    om = DirichletCharacter.teichmuller_power
    cases = [(2, chi(-4), chi(-3), None), (1, chi(-4), DirichletCharacter.trivial(), None),
             (3, chi(-4), chi(5), None), (3, chi(-4), om(7, 2), 10),
             (2, chi(-3), om(7, 1), 12), (3, DirichletCharacter(-4, 5, 1), chi(-7), 10),
             (3, DirichletCharacter(-4, 5, 1), om(5, 1), 10)]
    for k, eta, psi, prec in cases:
        assert (eta.is_rational and psi.is_rational) == (prec is None)
        E = eisenstein_two_char(k, eta, psi, n_terms, prec)
        want = _two_char_divisor_loop(k, eta, psi, n_terms, prec)
        assert same_coeffs(E.coeffs, want), (k, eta, psi)


def test_two_char_guards():
    with pytest.raises(DomainError):
        eisenstein_two_char(1, DirichletCharacter.trivial(), chi(-4))
    with pytest.raises(DomainError):
        eisenstein_two_char(2, chi(-4), chi(-3).raise_modulus({2}) * chi(-3))


def test_eigenform_law_T():
    # Eisenstein series are Hecke eigenforms: T_ell eigenvalue 1 + eta(ell) ell^{k-1}
    for k in (1, 3):
        E = eisenstein(k, chi(-4), n_terms=120)
        for ell in (3, 5, 7, 11):
            lam = 1 + chi(-4)(ell) * Fraction(ell) ** (k - 1)
            TE = hecke_T(ell, E)
            for n in range(TE.reliable_to + 1):
                assert TE.coeff(n) == lam * E.coeff(n), (k, ell, n)


def test_hecke_keeps_rational_coefficients_ints():
    # T_ell and U_ell of a rational E_k(1, chi) hold ints past q^0, equal to
    # the Fraction oracle c(n ell) + chi(ell) ell^{k-1} c(n/ell)
    n_terms = 150
    for k, char in ((1, chi(-4)), (2, chi(5)), (3, chi(-23))):
        E = eisenstein(k, char, n_terms=n_terms)
        c = [classical_L_at_nonpositive(char, 1 - k) * Fraction(1, 2)]
        c += [divisor_sum(n, char, k) for n in range(1, n_terms + 1)]
        for ell in (2, 3, 5, 7):
            U = hecke_U(ell, E)
            assert list(U.coeffs) == [c[n * ell] for n in range(U.reliable_to + 1)]
            assert all(type(x) is int for x in U.coeffs[1:]), (k, ell)
            if char.modulus % ell == 0:
                continue
            T = hecke_T(ell, E)
            scale = char(ell) * Fraction(ell) ** (k - 1)
            want = [c[n * ell] + (scale * c[n // ell] if n % ell == 0 else 0)
                    for n in range(T.reliable_to + 1)]
            assert list(T.coeffs) == want, (k, ell)
            assert all(type(x) is int for x in T.coeffs[1:]), (k, ell)


def test_hecke_T_rejects_bad_level():
    E = eisenstein(1, chi(-4), n_terms=20)
    with pytest.raises(DomainError):
        hecke_T(2, E)  # 2 divides the modulus 4


def test_hecke_horizon():
    E = eisenstein(1, chi(-4), n_terms=20)
    U = hecke_U(3, E)
    assert U.reliable_to == 6
    with pytest.raises(PrecisionError):
        hecke_U(30, E.truncate(10))
    with pytest.raises(PrecisionError, match="horizon 10 < 11"):
        hecke_T(11, E.truncate(10))
    with pytest.raises(PrecisionError):
        E.coeff(21)
    with pytest.raises(PrecisionError):
        E.truncate(25)


def test_up_shift_law():
    assert verify_up_relation(chi(-4), 5, n_q=200) == (None, 41)


def test_up_shift_law_needs_split():
    with pytest.raises(DomainError):
        verify_up_relation(chi(-4), 7)  # chi_{-4}(7) = -1


def test_up_nilpotence_directly():
    # (U_p - 1)^2 E_1(1, chi) = 0, every surviving coefficient
    p, c = 5, chi(-4)
    E = eisenstein(1, c, (), 250)
    horizon = 250 // p
    D = hecke_U(p, E) - E.truncate(horizon)
    D2 = hecke_U(p, D) - D.truncate(horizon // p)
    for n in range(D2.reliable_to + 1):
        assert D2.coeff(n) == 0, n


def test_qexp_arithmetic_contracts():
    E1 = eisenstein(1, chi(-4), n_terms=30)
    E3 = eisenstein(3, chi(-4), n_terms=30)
    with pytest.raises(DomainError):
        E1 + E3
    assert (E1 * 0).coeffs == (0,) * 31  # a zero scalar leaves zeros
    prod = E1 * E1
    assert prod.weight == 2
    # chi_{-4}^2 folds to the trivial disc with 2 kept as a lost prime
    assert prod.character.modulus == 2
    assert prod.character(3) == 1 and prod.character(2) == 0
    # convolution oracle at n = 3
    want = sum(E1.coeff(i) * E1.coeff(3 - i) for i in range(4))
    assert prod.coeff(3) == want


def test_hida_surrogate_normalized():
    g = hida_surrogate(2, 5, 30)
    assert g.coeff(0) == 1
    assert g.character.modulus % 5 == 0


def c0_vanishes(F):
    c = F.coeff(0)
    return c == 0 if isinstance(c, Fraction) else c.is_zero_to_precision()


def test_build_Fk_constant_term_vanishes():
    # inert branch (R' = {7}) and split branch (R' empty, quadratic W-ratio 1)
    assert c0_vanishes(build_Fk(3, chi(-4), 7, n_q=60))
    assert c0_vanishes(build_Fk(3, chi(-4), 5, n_q=60))
    # k = 1 mod (p-1) exercises the trivial Teichmueller twist path
    F_top = build_Fk(5, chi(-4), 5, n_q=60)
    assert F_top.coeff(0) == 0  # rational route: the cancellation is exact


def test_build_Fk_checks_the_cancellation(monkeypatch):
    # a Hida surrogate off by a factor 2 leaves c(0) = L_p/2 - L_p != 0
    monkeypatch.setattr(qexp, "hida_surrogate",
                        lambda *args: hida_surrogate(*args) * 2)
    for p in (7, 5):  # inert and split branches
        with pytest.raises(ConsistencyError, match="failed to cancel"):
            build_Fk(3, chi(-4), p, n_q=60)


def test_build_Fk_p_adic_chi_with_real_twist():
    # chi odd and not real, omega^(1-k) real: the two-character series still
    # needs a precision, since chi's values are p-adic
    cases = []
    for p in (3, 5, 7, 11, 13):
        for base in (1, -4):
            for e in range(p - 1):
                c = DirichletCharacter(base, p, e)
                if not c.is_odd or c.inverse() == c:
                    continue
                for k in range(2, 8):
                    om = DirichletCharacter.teichmuller_power(p, 1 - k)
                    if om.inverse() == om:
                        cases.append((k, c, p))
    assert len(cases) == 32
    for k, c, p in cases:
        assert c0_vanishes(build_Fk(k, c, p, n_q=4 * p)), (k, c, p)


def test_build_Fk_rejects_weight_one():
    with pytest.raises(DomainError):
        build_Fk(1, chi(-4), 5)


def test_hecke_operators_commute():
    E = eisenstein(1, chi(-4), n_terms=240)
    for ell1, ell2 in ((3, 5), (3, 7), (5, 11)):
        ab = hecke_T(ell2, hecke_T(ell1, E))
        ba = hecke_T(ell1, hecke_T(ell2, E))
        assert ab.reliable_to == ba.reliable_to
        for n in range(ab.reliable_to + 1):
            assert ab.coeff(n) == ba.coeff(n), (ell1, ell2, n)


def vp_exact(x, p):
    if x == 0:
        return None  # infinite
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def test_weight_one_congruence():
    # E_k(1, chi) = E_1(1, chi_p) mod p^{m+1} for k = 1 + (p-1)p^m: the
    # twist by omega^{1-k} is trivial there, prime-to-p divisors satisfy
    # d^{k-1} = 1 mod p^{m+1}, and the constant terms are congruent because
    # the p-adic L-function is continuous.  Constant term included.
    for p in (5, 7):
        c = chi(-4)
        E1p = eisenstein(1, c, (p,), 60)
        for m in (0, 1):
            k = 1 + (p - 1) * p ** m
            Ek = eisenstein(k, c, (), 60)
            for n in range(61):
                v = vp_exact(Ek.coeff(n) - E1p.coeff(n), p)
                assert v is None or v >= m + 1, (p, m, n)


def test_build_Fk_first_coefficient_prediction():
    # c(1) of the two-term combination, recomputed from the factors:
    # c1(F) = 1 - ratio * (c0(E1) c1(G) + c1(E1) c0(G)) on the inert branch
    from grossstark.lfunctions import classical_L_at_nonpositive
    from grossstark.qexp import hida_surrogate
    # k = 1 mod (p-1) keeps the twist rational; chi_{-3}(5) = -1 is inert
    k, p = 5, 5
    c = chi(-3)
    F = build_Fk(k, c, p, n_q=60)
    aux = c.raise_modulus({p})
    tw = c.teichmuller_twist(1 - k, p)
    lp_val = classical_L_at_nonpositive(tw, 1 - k)
    denom = classical_L_at_nonpositive(aux, 0)
    ratio = lp_val / denom
    E1 = eisenstein(1, aux, (), 60)
    G = hida_surrogate(k - 1, p, 60)
    want = divisor_sum(1, tw, k) \
        - ratio * (E1.coeff(0) * G.coeff(1) + E1.coeff(1) * G.coeff(0))
    assert F.coeff(1) == want


def _up_relation_with(monkeypatch, make_E, make_EJ, p=5, n_q=40):
    """verify_up_relation(chi_-4, p)'s first discrepancy, E and E_J rebuilt.

    make_E and make_EJ get the true coefficients and those of E, and return
    the ones verify_up_relation reads.
    """
    def built(k, eta, support=(), n_terms=200, prec=None):
        f = eisenstein(k, eta, support, n_terms, prec)
        plain = list(eisenstein(k, eta, (), n_terms, prec).coeffs)
        coeffs = (make_EJ if support else make_E)(list(f.coeffs), plain)
        return QExpansion(f.weight, f.character, coeffs, f.prec)

    monkeypatch.setattr(qexp, "eisenstein", built)
    return verify_up_relation(chi(-4), p, n_q=n_q)[0]


def test_up_relation_reports_each_branch(monkeypatch):
    # the shift law is a theorem, so only a wrong E or E_J reaches a branch;
    # p = 5, 40 terms: horizon 8
    def same(coeffs, plain):
        return coeffs

    def unraised(coeffs, plain):
        # E_J built without raising the modulus at p: E_J(0) = 0 != E(0)
        return plain

    def wrong_past_horizon(coeffs, plain):
        # right to the horizon 8, so only U_5 E_J (c(10) -> q^2) sees it
        coeffs[10] += 1
        return coeffs

    assert _up_relation_with(monkeypatch, same, same) is None
    assert _up_relation_with(monkeypatch, same, unraised) == ("branch1", 0)
    assert _up_relation_with(monkeypatch, same, wrong_past_horizon) == \
        ("branch2", 2)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: eisenstein(0, chi(-4)), DomainError, "weight must be at least 1"),
    (lambda: eisenstein_two_char(0, chi(-4), chi(-3)), DomainError,
     "weight must be at least 1"),
], ids=["eisenstein-k-0", "two-char-k-0"])
def test_input_guards(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
def test_foreign_operands(op):
    # arithmetic with an operand of a foreign type raises TypeError
    with pytest.raises(TypeError):
        op(QExpansion(1, chi(-4), [0, 1]), object())
