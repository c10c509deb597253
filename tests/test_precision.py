"""Declared precision is real, on every public route.

A value declared at N agrees, to every digit it declares, with the same call
at N + 10.  ROWS holds one row per route: its public names and a generator
of (case, N, call) over a seeded grid, where call(N) makes the call at N.
Every name in grossstark.__all__ is a row or is listed in NO_PADIC.  A route
that promises how much it declares has that promise in PROMISES, checked on
both calls, so it can neither over-claim nor fall short.  check_row runs a
row, or the slice of its cases that a per-module test selects, so a slice
checks exactly what the whole row checks.
"""

import random
from fractions import Fraction

import pytest

import grossstark
from grossstark.characters import (DirichletCharacter, gen_bernoulli,
                                   is_fundamental_discriminant, kronecker)
from grossstark.lambdaring import (LambdaElement, epsilon_char, nu_k,
                                   pi_normalize, uniformizer)
from grossstark.lfunctions import (LSeriesInstance, analytic_invariant,
                                   classical_L_at_nonpositive, kubota_leopoldt,
                                   lp_derivative_at_0, lstar)
from grossstark.padic import (PadicNumber, angle_bracket, hensel_sqrt, is_zero,
                              plog, teichmuller)
from grossstark.qexp import (QExpansion, build_Fk, eisenstein,
                             eisenstein_two_char, hecke_T, hecke_U,
                             hida_surrogate)
from grossstark.regulator import (PUnitCertificate, find_p_unit,
                                  gross_regulator_rank1)
from grossstark.walgebra import (WElement, build_W, case1_det_identity,
                                 case2_det_identity, case3_det_identity, det,
                                 epsilon_pi_minus_y, epsilon_y, hecke_t_image,
                                 u_p_image)

NS = (4, 8, 12)
HONESTY_PAIRS = [(3, -4), (5, -4), (7, -3), (3, -23), (5, -19), (7, -20)]


def chi(d):
    return DirichletCharacter.quadratic(d)


# -- rows ----------------------------------------------------------------------

def _kubota_leopoldt():
    for p, d in HONESTY_PAIRS:
        s_padic = PadicNumber.from_exact(p, Fraction(5 * p, 2), 40)
        for N in NS:
            for s in (0, -1, -2, 2, p, s_padic):
                yield (p, d, s), N, \
                    lambda N, p=p, d=d, s=s: kubota_leopoldt(
                        LSeriesInstance(p, chi(d), N), s)


def _lp_derivative_at_0():
    for p, d in HONESTY_PAIRS:
        for N in NS:
            yield (p, d), N, lambda N, p=p, d=d: lp_derivative_at_0(
                LSeriesInstance(p, chi(d), N))


def _analytic_invariant():
    # r = 1 only: the first three pairs where p splits
    split = [(p, d) for p, d in HONESTY_PAIRS if kronecker(d, p) == 1]
    for p, d in split[:3]:
        for N in NS:
            yield (p, d), N, lambda N, p=p, d=d: analytic_invariant(
                LSeriesInstance(p, chi(d), N))


def _padic_characters():
    # chi_d omega_p^j with j odd and not (p-1)/2, so the values are p-adic
    for p, d, j in ((5, -4, 1), (7, -3, 1), (7, -4, 3), (11, 5, 1)):
        twist = chi(d).teichmuller_twist(j, p)
        yield twist, p


def _character_values():
    for twist, p in _padic_characters():
        for N in NS:
            yield twist, N, lambda N, c=twist: [c(a, N) for a in range(1, 30)]


def _bernoulli_values():
    for twist, p in _padic_characters():
        for N in NS:
            for n in (1, 2, 3):
                yield (twist, n), N, lambda N, c=twist, n=n, p=p: (
                    gen_bernoulli(n, c, N),
                    classical_L_at_nonpositive(c, 1 - n, N),
                    lstar(c.raise_modulus({2}), 1 - n, p, N))


def _p_adic_units():
    for p in (3, 5, 7, 11, 13):
        for a in (2, 3, 4, 6, -1, 10 ** 6 + 1):
            if a % p:
                for N in NS:
                    yield (p, a), N, lambda N, p=p, a=a: (
                        angle_bracket(a, p, N), teichmuller(a, p, N))


def _hensel_sqrt():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, 40):
            if kronecker(a, p) == 1:
                for N in NS:
                    yield (p, a), N, lambda N, p=p, a=a: hensel_sqrt(a, p, N)


def _padic_number():
    rng = random.Random(21)
    for p in (3, 5, 7):
        for v in range(-2, 4):
            x = Fraction(_random_unit(rng, p, 12), _random_unit(rng, p, 3))
            x *= Fraction(p) ** v
            for N in NS:
                def call(N, p=p, x=x):
                    y = PadicNumber.from_exact(p, x, N)
                    return y, y.inverse(), 1 / y, y ** 3, y * y - y
                yield (p, x), N, call


def _random_unit(rng, p, rel):
    while True:
        u = rng.randrange(1, p ** rel)
        if u % p:
            return u


def _plog():
    # the argument at N + 10 extends the one at N by ten random digits
    rng = random.Random(4)
    for p in (3, 5, 7, 11, 13):
        for rel in (2, 3, 7, 20, 40):
            u = _random_unit(rng, p, rel)
            extra = u + p ** rel * rng.randrange(p ** 10)
            yield (p, rel, u), 1 + rel, lambda N, p=p, x=extra: plog(
                PadicNumber(p, 1, x % p ** (N - 1), N))


def _regulator_rank1():
    for p in (3, 5, 7, 11, 13):
        for d in range(-399, 0):
            if is_fundamental_discriminant(d) and kronecker(d, p) == 1:
                for N in NS:
                    def call(N, p=p, d=d):
                        cert = find_p_unit(d, p, N)
                        return cert, gross_regulator_rank1(cert)
                    yield (p, d), N, call


def _epsilon_char():
    for p in (3, 5, 7):
        for x in (2, 4, -1):
            for M in (4, 8):
                for N in NS:
                    yield (p, x, M), N, lambda N, p=p, x=x, M=M: (
                        epsilon_char(x, p, M, N))


def _nu_k_of_epsilon_char():
    for p in (3, 5, 7, 11, 13):
        for x in (2, 3, 4, 6, 10, 12, -1):
            if x % p == 0:
                continue
            for M in (4, 8, 16):
                for N in NS:
                    def call(N, p=p, x=x, M=M):
                        h = epsilon_char(x, p, M, N)
                        return [nu_k(h, k) for k in (0, 1, 2, 3, -2, p, p + 1)]
                    yield (p, x, M), N, call


def _pi_normalize():
    # pi_normalize(h) and nu_k of its h', for h = eps(x) - eps(x)(0)
    for p in (3, 5, 7):
        for x in (2, 4, 11):
            for M in (4, 8):
                for N in NS:
                    def call(N, p=p, x=x, M=M):
                        e = epsilon_char(x, p, M, N)
                        n, hp = pi_normalize(e - e.coeff(0))
                        return n, hp, [nu_k(hp, k) for k in (2, 1 + p, 1 + p * p)]
                    yield (p, x, M), N, call


def _lambda_elements():
    for p in (3, 5, 7):
        for M in (4, 8):
            for N in NS:
                yield (p, M), N, lambda N, p=p, M=M: (
                    uniformizer(p, M, N),
                    LambdaElement(p, [Fraction(1, 3), 2, Fraction(p, 7)], M, N),
                    epsilon_char(2, p, M, N) * epsilon_char(-1, p, M, N))


def _eisenstein():
    # omega_p-carrying characters give p-adic coefficients
    for p in (5, 7):
        om = DirichletCharacter.teichmuller_power(p)
        for N in NS:
            def call(N, p=p, om=om):
                e1 = eisenstein(1, om, (), 24, N)
                e3 = eisenstein(3, om, (2,), 24, N)
                return (e1, e3, hecke_T(2, e1), hecke_U(p, e1),
                        eisenstein_two_char(2, chi(-4), om, 24, N))
            yield p, N, call


def _hida_and_fk():
    for p, d, k in ((5, -4, 2), (7, -3, 2), (5, -4, 3)):
        for N in NS:
            yield (p, d, k), N, lambda N, p=p, d=d, k=k: (
                hida_surrogate(k, p, 20, N), build_Fk(k, chi(d), p, 20, N))


def _padic_scalars(p, N):
    return plog(PadicNumber.from_exact(p, 1 + p, N)) * 2, \
        PadicNumber.from_exact(p, 3, N)


def _lambda_images():
    for p in (3, 5):
        for x in (2, -1):
            for N in NS:
                def call(N, p=p, x=x):
                    L, W = _padic_scalars(p, N)
                    alg = build_W(2, 1, r_an=2, L=L, W=W)
                    h = epsilon_char(x, p, N=N)
                    return (epsilon_y(h, alg), epsilon_pi_minus_y(h, alg),
                            hecke_t_image(h, -1, alg), u_p_image(alg, 1),
                            alg.eps_product())
                yield (p, x), N, call


def _determinants():
    rng, rng3 = random.Random(8), random.Random(9)
    for p in (3, 5):
        o = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)]
        lm, lm3 = ([[Fraction(g.randrange(-9, 10), g.randrange(1, 8))
                     for _ in range(n)] for _ in range(n)]
                   for g, n in ((rng, 2), (rng3, 3)))
        for N in NS:
            def call(N, p=p, o=o, lm=lm, lm3=lm3):
                L, W = _padic_scalars(p, N)
                lp, lp3 = ([[PadicNumber.from_exact(p, x, N) * L for x in row]
                            for row in m] for m in (lm, lm3))
                algs = (build_W(1, 2, r_an=2, L=L),
                        build_W(2, 2, r_an=2, L=L, W=W),
                        build_W(3, 2, s=3, t=2, L=L, W=W))
                # the 3 x 3 det is the first whose minors are shared
                return (det(lp), det(lp3), case1_det_identity(o, lp, algs[0]),
                        case2_det_identity(o, lp, algs[1]),
                        case3_det_identity(o, lp, algs[2]))
            yield (p, o, lm, lm3), N, call


ROWS = [
    (("kubota_leopoldt",), _kubota_leopoldt),
    (("lp_derivative_at_0",), _lp_derivative_at_0),
    (("analytic_invariant",), _analytic_invariant),
    (("DirichletCharacter",), _character_values),
    (("gen_bernoulli", "classical_L_at_nonpositive", "lstar"),
     _bernoulli_values),
    (("angle_bracket", "teichmuller"), _p_adic_units),
    (("hensel_sqrt",), _hensel_sqrt),
    (("PadicNumber",), _padic_number),
    (("plog",), _plog),
    (("gross_regulator_rank1", "find_p_unit", "PUnitCertificate"),
     _regulator_rank1),
    (("epsilon_char",), _epsilon_char),
    (("nu_k",), _nu_k_of_epsilon_char),
    (("pi_normalize",), _pi_normalize),
    (("LambdaElement", "uniformizer"), _lambda_elements),
    (("QExpansion", "eisenstein", "eisenstein_two_char", "hecke_T",
      "hecke_U"), _eisenstein),
    (("hida_surrogate", "build_Fk"), _hida_and_fk),
    (("WAlgebra", "WElement", "build_W", "epsilon_y", "epsilon_pi_minus_y",
      "hecke_t_image", "u_p_image"), _lambda_images),
    (("det", "case1_det_identity", "case2_det_identity",
      "case3_det_identity"), _determinants),
]

# promise(N, result) per row: the precision the call at N declares
PROMISES = {
    "kubota_leopoldt": lambda N, x: x.precision == N,
    "lp_derivative_at_0": lambda N, x: x.precision == N,
    "gross_regulator_rank1": lambda N, x: x[1].precision >= N,
    # the argument has v = 1, so rel = N - 1 digits of its unit part
    "plog": lambda N, x: x.precision == N - 1,
}

# public names that return no PadicNumber, nor a container of them
NO_PADIC = {
    "__version__", "DEFAULT_TRUNCATION",
    "BernoulliCache", "bernoulli_number", "is_fundamental_discriminant",
    "kronecker", "prime_discriminant", "topological_generator",
    "LSeriesInstance", "order_probe", "cornacchia", "v_p",
    "verify_up_relation", "class_number", "Laurent",
    "ConsistencyError", "ConstructionError", "DegenerateInstanceError",
    "DomainError", "IndeterminateOrderError", "NoRootError", "PoleError",
    "PrecisionError", "RamifiedError", "UnsupportedPoleError",
}


# -- the check -----------------------------------------------------------------

def _scalars(x):
    """The scalars of a result, flattened in a fixed order."""
    if isinstance(x, (list, tuple)):
        return [s for item in x for s in _scalars(item)]
    if isinstance(x, LambdaElement):
        return list(x.coeffs)
    if isinstance(x, QExpansion):
        return list(x.coeffs)
    if isinstance(x, WElement):
        return [x.coords.get(i, 0) for i in range(x.algebra.dimension)]
    if isinstance(x, PUnitCertificate):
        return [x.h, x.x, x.y, x.o, x.w, x.ell]
    return [x]


def _agrees(lo, hi) -> bool:
    """hi agrees with every digit lo declares; an exact lo must match exactly."""
    if isinstance(lo, PadicNumber) and not lo.exact_zero:
        return lo.same_to(hi, lo.precision)
    if isinstance(lo, PadicNumber) or lo == 0:
        return is_zero(hi)
    return lo == hi


def check_row(name, where=lambda case: True):
    """Run the row named name on the cases where(case) selects."""
    row = {names[0]: row for names, row in ROWS}[name]
    promise = PROMISES.get(name, lambda N, x: True)
    inexact = 0
    for case, N, call in row():
        if not where(case):
            continue
        lo, hi = call(N), call(N + 10)
        assert promise(N, lo) and promise(N + 10, hi), (case, N)
        lo, hi = _scalars(lo), _scalars(hi)
        assert len(lo) == len(hi), (case, N)
        for i, (a, b) in enumerate(zip(lo, hi)):
            assert _agrees(a, b), (case, N, i, a, b)
            inexact += isinstance(a, PadicNumber) and not a.exact_zero
    assert inexact, "the row declares no digits"


@pytest.mark.parametrize("name", [names[0] for names, _ in ROWS])
def test_declared_precision_is_real(name):
    check_row(name)


def test_every_public_name_is_a_row_or_returns_no_padic_number():
    rows = {name for names, _ in ROWS for name in names}
    assert not rows & NO_PADIC
    assert rows | NO_PADIC == set(grossstark.__all__)
    assert set(PROMISES) <= {names[0] for names, _ in ROWS}
