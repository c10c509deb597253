"""End-to-end acceptance gate.

Each test is one verification criterion, prints one summary line, and
asserts its stated tolerance and time budget.  These are the checks the
toolkit exists to run; everything else in tests/ supports them.
"""

import random
import time
from fractions import Fraction

import pytest

from grossstark.characters import DirichletCharacter, kronecker
from grossstark.errors import DomainError, UnsupportedPoleError
from grossstark.lambdaring import (LambdaElement, epsilon_char, nu_k,
                                   pi_normalize, topological_generator)
from grossstark.lfunctions import (LSeriesInstance, analytic_invariant,
                                   classical_L_at_nonpositive,
                                   kubota_leopoldt, lstar)
from grossstark.padic import PadicNumber, angle_bracket, plog
from grossstark.qexp import (build_Fk, eisenstein, hecke_T,
                             verify_up_relation)
from grossstark.regulator import find_p_unit, gross_regulator_rank1
from grossstark.walgebra import (Laurent, build_W, case1_det_identity,
                                 case2_det_identity, case3_det_identity)

N = 12
GENERIC_L = Fraction(5, 3)
GENERIC_W = Fraction(2, 7)


def is_zero(x):
    if isinstance(x, Fraction):
        return x == 0
    return x.exact_zero or x.is_zero_to_precision()


def val_at_least(x, bound):
    return is_zero(x) or x.valuation >= bound


def test_G1_interpolation_contract():
    """Series values match exact Euler-deleted L-values on the full grid."""
    t0 = time.perf_counter()
    discs = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24)
    checked = 0
    for p in (3, 5, 7):
        for d in discs:
            chi = DirichletCharacter.quadratic(d)
            if p == 3 and d == -3:
                # the one degenerate pairing: chi is the inverse Teichmueller
                # character, whose p-adic L-function has a pole
                with pytest.raises(UnsupportedPoleError):
                    kubota_leopoldt(LSeriesInstance(p, chi, N), 0)
                continue
            inst = LSeriesInstance(p, chi, N)
            for n in (0, -1, -2, -3):
                series = kubota_leopoldt(inst, n)
                exact = lstar(chi.teichmuller_twist(n, p), n, p,
                              prec=series.precision + 4)
                diff = series - exact
                assert val_at_least(diff, N - 2), (p, d, n, diff)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"G1 exceeded budget: {elapsed:.1f}s"
    print(f"G1 interpolation contract: PASS "
          f"({checked} instances, valuation >= {N - 2}, {elapsed:.1f}s)")


def test_G2_gross_stark_equality():
    """Analytic invariant equals the regulator on five split instances."""
    t0 = time.perf_counter()
    instances = ((5, -4), (7, -3), (13, -4), (5, -11), (11, -7))
    for p, d in instances:
        assert kronecker(d, p) == 1, f"({p}, {d}) must be split"
        chi = DirichletCharacter.quadratic(d)
        l_an, _ = analytic_invariant(LSeriesInstance(p, chi, N))
        reg = gross_regulator_rank1(find_p_unit(d, p, N=N))
        diff = l_an - reg
        assert val_at_least(diff, N - 4), (p, d, diff)
        # a pure-sign mismatch must not be mistaken for agreement: the
        # mirrored comparison has to fail at the same depth
        mirror = l_an + reg
        assert not val_at_least(mirror, N - 4), \
            f"({p}, {d}): sign-insensitive agreement; convention flag"
    # a near miss is rejected up front rather than silently computed:
    # chi_{-8}(7) = -1, so (7, -8) has no exceptional zero and no split prime
    assert kronecker(-8, 7) == -1
    with pytest.raises(DomainError):
        find_p_unit(-8, 7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"G2 exceeded budget: {elapsed:.1f}s"
    print(f"G2 gross-stark equality: PASS "
          f"({len(instances)} split instances, valuation >= {N - 4}, "
          f"sign flags clean, {elapsed:.1f}s)")


def test_G3_w_algebra_structure():
    """Dimension, nilpotency, associativity for cases 1 and 2."""
    t0 = time.perf_counter()
    for r in (1, 2, 3):
        for case, alg in ((1, build_W(1, r, r_an=r, L=GENERIC_L)),
                          (2, build_W(2, r, r_an=r, L=GENERIC_L, W=GENERIC_W))):
            want = 2 ** r + r - 1 if case == 1 else 2 ** r + 2 * r - 2
            assert alg.dimension == want, (case, r)
            # nilpotency: the maximal ideal to the power r_an + 1 vanishes
            assert not alg.pi(r + 1).nonzero()
            if case == 2:
                assert not alg.y(r + 1).nonzero()
            els = [alg.element({m: Fraction(1)}) for m in alg.basis]
            degs = [len(v) if k == "eps" else v for (k, v) in alg.basis]
            for i, x in enumerate(els):
                for j, y in enumerate(els):
                    if degs[i] + degs[j] > r:
                        assert not (x * y).nonzero(), (case, r, i, j)
            # associativity, checked here independently of the constructor
            for x in els:
                for y in els:
                    xy = x * y
                    for z in els:
                        assert not ((xy * z) - (x * (y * z))).nonzero(), \
                            (case, r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"G3 exceeded budget: {elapsed:.1f}s"
    print(f"G3 w-algebra structure: PASS (cases 1-2, r = 1..3, {elapsed:.1f}s)")


def test_G4_determinant_identities():
    """Residues vanish for 100 random matrix pairs per case and rank."""
    t0 = time.perf_counter()
    rng = random.Random(20260817)

    def rand_matrix(r):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(r)] for _ in range(r)]

    fns = {1: case1_det_identity, 2: case2_det_identity, 3: case3_det_identity}
    trials = 100
    for r in (1, 2, 3):
        pairs = {
            1: (build_W(1, r, r_an=r, L=GENERIC_L),
                build_W(1, r, r_an=r, L=Laurent.var_L())),
            2: (build_W(2, r, r_an=r, L=GENERIC_L, W=GENERIC_W),
                build_W(2, r, r_an=r, L=Laurent.var_L(), W=Laurent.var_W())),
            3: (build_W(3, r, s=r + 1, t=r, L=GENERIC_L, W=GENERIC_W),
                build_W(3, r, s=r + 1, t=r, L=Laurent.var_L(),
                        W=Laurent.var_W())),
        }
        for case, (concrete, formal) in pairs.items():
            for _ in range(trials):
                o, l = rand_matrix(r), rand_matrix(r)
                assert not fns[case](o, l, concrete).nonzero(), (case, r)
                assert not fns[case](o, l, formal).nonzero(), (case, r)
        # ring identities behind the expansions
        a2 = pairs[2][0]
        d = a2.pi() - a2.y()
        power = a2.one()
        for _ in range(r):
            power = power * d
        assert power == a2.pi(r) - a2.y(r), r
        a3 = pairs[3][0]
        w_elt = a3.pi(a3.s - a3.t) * GENERIC_W
        assert a3.y(a3.t) == a3.pi(a3.t) * w_elt, r
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"G4 exceeded budget: {elapsed:.1f}s"
    print(f"G4 determinant identities: PASS "
          f"({trials} pairs x 3 cases x r=1..3, concrete + formal, "
          f"{elapsed:.1f}s)")


def test_G5_hecke_relations():
    """Shift law bit-exact on 40+ coefficients; eigenform law for 10 primes."""
    t0 = time.perf_counter()
    grids = {3: (-8, -11, -20, -23, -35),
             5: (-4, -11, -19, -24, -31),
             7: (-3, -19, -24, -40, -47)}
    for p, ds in grids.items():
        for d in ds:
            chi = DirichletCharacter.quadratic(d)
            assert chi(p) == 1, (p, d)
            first, checked = verify_up_relation(chi, p, n_q=300)
            assert first is None, (p, d, first)
            assert checked >= 41, (p, d)
    ells = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for k, d in ((1, -4), (2, 8), (3, -4)):
        chi = DirichletCharacter.quadratic(d)
        E = eisenstein(k, chi, n_terms=320)
        for ell in ells:
            lam = 1 + chi(ell) * Fraction(ell) ** (k - 1)
            TE = hecke_T(ell, E)
            assert TE.reliable_to >= 10
            for n in range(TE.reliable_to + 1):
                assert TE.coeff(n) == lam * E.coeff(n), (k, ell, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20, f"G5 exceeded budget: {elapsed:.1f}s"
    print(f"G5 hecke relations: PASS (15 shift-law instances, "
          f"{len(ells)} eigenform primes x 3 weights, {elapsed:.1f}s)")


def test_G6_lambda_bridge():
    """Weight specializations of the cyclotomic character, and the
    finite-difference reading of pi_normalize's leading coefficient."""
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        units = [x for x in range(2, 40) if x % p][:10]
        assert len(units) == 10
        for x in units:
            e = epsilon_char(x, p, N=N)
            for k in dict.fromkeys((1, 2, 3, 5, 1 + (p - 1))):
                got = nu_k(e, k)
                want = angle_bracket(x, p, int(got.precision) + 2) ** (k - 1)
                assert val_at_least(got - want, N - 3), (p, x, k)
        # the bridge: h = pi^n h' has nu_k(h)/nu_k(pi)^n -> nu_1(h')
        lug = plog(PadicNumber.from_exact(p, topological_generator(p), N + 6))
        pi_elt = LambdaElement(p, [PadicNumber.zero(p), lug.inverse()])
        h = (epsilon_char(2, p, N=N) - 1) * 11
        n, hp = pi_normalize(h)
        assert n == 1
        lead = hp.coeff(0)
        for m in (2, 3):
            k = 1 + p ** m
            fd = nu_k(h, k) / nu_k(pi_elt, k) ** n
            assert val_at_least(fd - lead, m - 1), (p, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"G6 exceeded budget: {elapsed:.1f}s"
    print(f"G6 lambda bridge: PASS (10-unit grids, 3 primes, "
          f"FD bridge m=2,3, {elapsed:.1f}s)")


def test_G7_Fk_constant_terms():
    """Forced-zero constant terms on both branches; W-ratio collapse."""
    t0 = time.perf_counter()
    grid = [(-4, 5, (3, 5, 9)),   # split: R' empty, includes k = 1 mod (p-1)
            (-3, 7, (3, 7)),      # split at p = 7, k = 7 = 1 mod (p-1)
            (-4, 7, (3, 5)),      # inert: R' nonempty
            (-3, 5, (3, 5))]      # inert, k = 5 = 1 mod (p-1)
    built = 0
    for d, p, ks in grid:
        chi = DirichletCharacter.quadratic(d)
        for k in ks:
            F = build_Fk(k, chi, p, n_q=60)
            assert is_zero(F.coeff(0)), (d, p, k)
            built += 1
    # W-ratio collapse for a self-inverse character: the product of the two
    # L-value brackets is exactly 1 on rational grid points and 1 to
    # precision on irrational ones
    chi = DirichletCharacter.quadratic(-4)
    for p, k in ((5, 5), (5, 9)):
        tw = chi.teichmuller_twist(1 - k, p)
        b1 = classical_L_at_nonpositive(tw, 1 - k) \
            / classical_L_at_nonpositive(chi, 0)
        inv = chi.inverse()
        assert inv == chi
        b2 = classical_L_at_nonpositive(inv, 0) \
            / classical_L_at_nonpositive(inv.teichmuller_twist(1 - k, p), 1 - k)
        assert b1 * b2 == 1, (p, k)
    p, k, wp = 5, 2, 18
    tw = chi.teichmuller_twist(1 - k, p)
    b1 = classical_L_at_nonpositive(tw, 1 - k, wp) \
        / classical_L_at_nonpositive(chi, 0, wp)
    b2 = classical_L_at_nonpositive(chi, 0, wp) \
        / classical_L_at_nonpositive(chi.teichmuller_twist(1 - k, p), 1 - k, wp)
    assert is_zero(b1 * b2 - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20, f"G7 exceeded budget: {elapsed:.1f}s"
    print(f"G7 constant-term cancellation: PASS ({built} forms, "
          f"both branches, W collapse exact, {elapsed:.1f}s)")
