"""Kubota-Leopoldt series: interpolation, trivial zeros, derivatives."""

import math
from fractions import Fraction

import pytest

import grossstark.lfunctions as lfunctions
from grossstark.characters import DirichletCharacter, bernoulli_number
from grossstark.cli import main
from grossstark.errors import (ConsistencyError, DomainError, PoleError,
                               UnsupportedPoleError)
from grossstark.lfunctions import (LSeriesInstance, analytic_invariant,
                                   classical_L_at_nonpositive, kubota_leopoldt,
                                   lp_derivative_at_0, lstar, order_probe)
from grossstark.padic import PadicNumber, angle_bracket, plog, v_p

from test_precision import HONESTY_PAIRS, check_row


def chi(d):
    return DirichletCharacter.quadratic(d)


# -- classical values (exact Bernoulli oracle) ------------------------------

def test_classical_values_binding():
    assert classical_L_at_nonpositive(chi(-3), 0) == Fraction(1, 3)
    assert classical_L_at_nonpositive(chi(-4), 0) == Fraction(1, 2)
    assert classical_L_at_nonpositive(chi(-4), -2) == Fraction(-1, 2)
    # zeta(-1) = -1/12, zeta(0) has a pole guard
    one = DirichletCharacter.trivial()
    assert classical_L_at_nonpositive(one, -1) == Fraction(-1, 12)
    with pytest.raises(PoleError):
        classical_L_at_nonpositive(one, 0)


def test_classical_rejects_positive_s():
    with pytest.raises(DomainError):
        classical_L_at_nonpositive(chi(-3), 1)


def test_lstar_euler_factor():
    # L*(chi, n) = (1 - chi(p) p^{-n}) L(chi, n) at n = 0: factor (1 - chi(p))
    assert lstar(chi(-3), 0, 5) == Fraction(2, 3)      # chi_{-3}(5) = -1
    assert lstar(chi(-3), 0, 7) == 0                   # chi_{-3}(7) = 1: trivial zero
    assert lstar(chi(-4), 0, 5) == 0                   # split
    assert lstar(chi(-4), 0, 7) == Fraction(1)         # inert: (1+1)*1/2


# -- interpolation ----------------------------------------------------------

def test_kubota_leopoldt_at_padic_argument():
    p, N = 5, 10
    inst = LSeriesInstance(p, chi(-4), N)
    s = PadicNumber.from_exact(p, p ** 2, N)  # s = 25, valuation 2
    val = kubota_leopoldt(inst, s)
    assert isinstance(val, PadicNumber)
    # continuity: close to the value at 0 (difference controlled by s)
    v0 = kubota_leopoldt(inst, 0)
    assert (val - v0).valuation >= 2


def test_padic_argument_needs_positive_valuation():
    inst = LSeriesInstance(5, chi(-4), 10)
    s = PadicNumber.from_exact(5, 3, 10)  # a unit: outside the disc contract
    with pytest.raises(DomainError):
        kubota_leopoldt(inst, s)


def test_pole_at_s_equal_1():
    with pytest.raises(PoleError):
        kubota_leopoldt(LSeriesInstance(5, chi(-4), 10), 1)


def test_instance_validation():
    with pytest.raises(DomainError):
        LSeriesInstance(4, chi(-3), 10)   # not an odd prime
    with pytest.raises(DomainError):
        LSeriesInstance(5, DirichletCharacter.quadratic(5), 10)  # even character
    with pytest.raises(DomainError):
        LSeriesInstance(5, chi(-3), 0)    # no precision


def test_degenerate_twist_rejected():
    # p = 3, chi_{-3} = omega^{-1}: the p-adic L-function has a pole
    inst = LSeriesInstance(3, chi(-3), 10)
    with pytest.raises(UnsupportedPoleError):
        kubota_leopoldt(inst, 0)


def test_character_at_another_prime_is_a_domain_error():
    # omega_q with q != p has no Kubota-Leopoldt function at p: a DomainError
    # naming both primes, not a ConsistencyError from inside the engine
    for p, q in ((3, 7), (7, 5)):
        inst = LSeriesInstance(p, DirichletCharacter(1, q, 1))
        with pytest.raises(DomainError, match=rf"omega_{q}.*omega_{p}"):
            kubota_leopoldt(inst)


def test_trivial_zero_when_split():
    # chi_{-4}(5) = 1: L_p(chi omega, 0) = 0 to precision
    inst = LSeriesInstance(5, chi(-4), 12)
    v = kubota_leopoldt(inst, 0)
    assert v.is_zero_to_precision()


def test_no_trivial_zero_when_inert():
    # chi_{-4}(7) = -1: r = 0, nonzero value
    inst = LSeriesInstance(7, chi(-4), 12)
    v = kubota_leopoldt(inst, 0)
    assert not v.is_zero_to_precision()


def test_derivative_locked_value():
    # the worked (p=5, d=-4) instance: L_p'(0) residue pinned at 12 digits
    inst = LSeriesInstance(5, chi(-4), 12)
    d1 = lp_derivative_at_0(inst)
    assert d1.valuation == 1
    assert d1.residue(12) == 1352422578 * 5 % 5 ** 12


def test_derivative_finite_difference_consistency():
    # the FD comparison always runs internally; it must not raise
    for (p, d) in ((5, -4), (7, -3)):
        inst = LSeriesInstance(p, chi(d), 10)
        val = lp_derivative_at_0(inst)
        assert isinstance(val, PadicNumber)


@pytest.mark.parametrize("short", [None, 2, 3, 4])
def test_finite_difference_bound_is_min_m_minus_1_and_3(monkeypatch, short):
    # crafted jets: each (L_p(p^m) - L_p(0))/p^m misses d1 by a term of
    # valuation exactly min(m - 1, 3), one less at m = short
    p, inst = 5, LSeriesInstance(5, chi(-4), 12)
    d1 = Fraction(3, 7)
    gaps = {m: min(m - 1, 3) - (m == short) for m in (2, 3, 4)}
    values = [p ** m * (d1 + Fraction(2 * p ** gaps[m], 11))
              for m in (2, 3, 4)]
    monkeypatch.setattr(lfunctions, "_series_jets", lambda *args: [
        ((0, d1), inst.N + 4), *(([v], inst.N + 4) for v in values)])
    if short is None:
        assert lp_derivative_at_0(inst) == PadicNumber.from_exact(p, d1, 12)
    else:
        with pytest.raises(ConsistencyError, match=f"valuation {gaps[short]}"):
            lp_derivative_at_0(inst)


def test_order_probe():
    inst = LSeriesInstance(5, chi(-4), 12)
    probe = order_probe(inst)
    assert probe["order_lower_bound"] == 1
    assert probe["conclusive"] is True
    inert = LSeriesInstance(7, chi(-4), 12)
    probe0 = order_probe(inert)
    assert probe0["order_lower_bound"] == 0
    # low precision: probe declines to conclude
    weak = order_probe(LSeriesInstance(5, chi(-4), 4))
    assert weak["conclusive"] is False
    # below N = 2 there is no tolerance to probe with
    tiny = order_probe(LSeriesInstance(5, chi(-4), 1))
    assert (tiny["order_lower_bound"], tiny["coefficient_valuations"],
            tiny["conclusive"]) == (0, [], False)


@pytest.mark.parametrize("vals, bound, conclusive", [
    ((10, 9, 0, 0), 1, True),    # N - 2 vanishes, N - 3 does not
    ((10, 10, 9, 0), 2, True),
    ((10, 10, 10, 10), 3, False),  # never more than max_r, never conclusive
    ((9, 10, 10, 10), 0, True),
])
def test_order_probe_tolerance_is_n_minus_2(monkeypatch, vals, bound,
                                            conclusive):
    # crafted jets with coefficient valuations N - 2 = 10 and N - 3 = 9
    p, inst = 5, LSeriesInstance(5, chi(-4), 12)
    jets = [Fraction(3 * p ** v, 7) for v in vals]
    monkeypatch.setattr(lfunctions, "_series_jets",
                        lambda *args: [(jets, inst.N + 4)])
    probe = order_probe(inst)
    assert probe["coefficient_valuations"] == list(vals)
    assert probe["order_lower_bound"] == bound
    assert probe["conclusive"] is conclusive


def test_analytic_invariant_rank1():
    inst = LSeriesInstance(5, chi(-4), 12)
    l_an, classical = analytic_invariant(inst)
    assert classical == Fraction(1, 2)
    # L_an = L_p'(0) / L(chi, 0) = 2 L_p'(0)
    assert l_an.residue(12) == (2 * 1352422578 * 5) % 5 ** 12


def test_analytic_invariant_rank0_raises_domain_error(monkeypatch):
    # r = 0 (7 is inert in Q(i)): L_p(0) = L*(chi, 0) is the interpolation
    # property, not a leading term; refused before the series engine runs
    def unbuilt(*args):
        raise AssertionError("the series engine must not run")

    monkeypatch.setattr(lfunctions, "_series_jets", unbuilt)
    inst = LSeriesInstance(7, chi(-4), 12)
    with pytest.raises(DomainError, match="r = 1"):
        analytic_invariant(inst)


def test_analytic_invariant_makes_four_series_passes(monkeypatch):
    # s = 0 to order 1 plus the three finite differences at s = p^m, all
    # four taken in one series-engine call
    calls = []
    engine = lfunctions._series_jets

    def counted(chi, p, W, points):
        calls.append(list(points))
        return engine(chi, p, W, points)

    monkeypatch.setattr(lfunctions, "_series_jets", counted)
    analytic_invariant(LSeriesInstance(5, chi(-4), 12))
    assert calls == [[(0, 1), (25, 0), (125, 0), (625, 0)]]


def test_analytic_invariant_builds_one_residue_table(monkeypatch):
    # the four points share their per-a data: one log fill, and no more
    # plog calls than a single order-1 point at s = 0 needs
    logged, fills = [], []
    real_plog, logs = lfunctions.plog, lfunctions._logs

    def counted_plog(x):
        logged.append(x)
        return real_plog(x)

    def counted_logs(*args):
        fills.append(args[2:])
        return logs(*args)

    monkeypatch.setattr(lfunctions, "plog", counted_plog)
    monkeypatch.setattr(lfunctions, "_logs", counted_logs)
    lfunctions._series_jets(chi(-4), 5, 12, [(0, 1)])
    one_point = len(logged)
    assert one_point > 0
    logged.clear()
    fills.clear()
    analytic_invariant(LSeriesInstance(5, chi(-4), 12))
    assert fills == [(5, 23)]
    assert len(logged) == one_point


def test_each_public_call_makes_one_series_call(monkeypatch):
    # the other public routes also make one call, with one log fill when
    # some point needs a derivative
    calls, fills = [], []
    engine, logs = lfunctions._series_jets, lfunctions._logs

    def counted(chi, p, W, points):
        calls.append(list(points))
        return engine(chi, p, W, points)

    def counted_logs(*args):
        fills.append(args[2:])
        return logs(*args)

    monkeypatch.setattr(lfunctions, "_series_jets", counted)
    monkeypatch.setattr(lfunctions, "_logs", counted_logs)
    inst = LSeriesInstance(5, chi(-4), 12)
    four = [(0, 1), (25, 0), (125, 0), (625, 0)]
    for fn, points, n_fills in ((lp_derivative_at_0, four, 1),
                                (kubota_leopoldt, [(0, 0)], 0),
                                (order_probe, [(0, 3)], 1)):
        calls.clear()
        fills.clear()
        fn(inst)
        assert calls == [points], fn.__name__
        assert fills == [(5, 23)] * n_fills, fn.__name__


def test_derivative_fails_when_a_finite_difference_disagrees(monkeypatch,
                                                             capsys):
    # L_p(p^3) moved by p^3 moves its finite difference by a unit
    engine = lfunctions._series_jets

    def perturbed(chi, p, W, points):
        out = engine(chi, p, W, points)
        return [([c[0] + p ** 3] + c[1:] if s == p ** 3 else c, good_to)
                for (s, _), (c, good_to) in zip(points, out)]

    monkeypatch.setattr(lfunctions, "_series_jets", perturbed)
    inst = LSeriesInstance(5, chi(-4), 12)
    for fn in (lp_derivative_at_0, analytic_invariant):
        with pytest.raises(ConsistencyError, match=r"p\^3"):
            fn(inst)
    assert main(["gross-stark", "--p", "5", "--disc", "-4"]) == 1
    out = capsys.readouterr().out
    assert "[        fail] gross-stark p=5 d=-4" in out
    assert "p^3" in out


def test_derivative_tolerance_is_min_of_m_minus_1_and_3(monkeypatch):
    # L_p(p^3) moved by p^4 moves its finite difference by p: valuation 1,
    # below the min(m - 1, 3) = 2 digits the check asks for at m = 3
    engine = lfunctions._series_jets

    def perturbed(chi, p, W, points):
        out = engine(chi, p, W, points)
        return [([c[0] + p ** 4] + c[1:] if s == p ** 3 else c, good_to)
                for (s, _), (c, good_to) in zip(points, out)]

    monkeypatch.setattr(lfunctions, "_series_jets", perturbed)
    inst = LSeriesInstance(5, chi(-4), 12)
    for fn in (lp_derivative_at_0, analytic_invariant):
        with pytest.raises(ConsistencyError,
                           match=r"at p\^3 .*\(valuation 1\)"):
            fn(inst)


@pytest.mark.parametrize("p,d", [(5, -4)])
def test_analytic_invariant_matches_public_routes(p, d):
    # rank 1 only: the r = 0 statement is interp's n = 0 check
    inst = LSeriesInstance(p, chi(d), 12)
    l_an, classical = analytic_invariant(inst)
    assert classical == classical_L_at_nonpositive(inst.chi, 0)
    assert l_an == lp_derivative_at_0(inst) / classical


# -- series engine on residues mod p^M ------------------------------------

@pytest.mark.parametrize("p,d", HONESTY_PAIRS)
def test_declared_precision_is_real(p, d):
    # the kubota_leopoldt and lp_derivative_at_0 rows of the precision
    # table at this (p, d): both declare exactly N, and every digit is real
    check_row("kubota_leopoldt", lambda case: case[:2] == (p, d))
    check_row("lp_derivative_at_0", lambda case: case == (p, d))


@pytest.mark.parametrize("p,d,W,s,order,good_to,expected", [
    # order 3 at p = 3, where p divides 3!
    (3, -4, 20, 0, 3, 16,
     [(0, 1), (1, 8576427), (3, 27382833), (2, 31822947)]),
    (5, -4, 20, -3, 2, 16,
     [(1, 82209707955), (1, 68680664890), (4, 92195800625)]),
    # a p-adic s known to 14 digits caps good_to
    (7, -3, 20, (7, Fraction(35, 3), 14), 0, 14, [(2, 157753955079)]),
])
def test_series_jets_golden_residues(p, d, W, s, order, good_to, expected):
    # (valuation, residue mod p^good_to), captured from the exact Fraction engine
    if isinstance(s, tuple):
        s = PadicNumber.from_exact(*s)
    [(jets, got_to)] = lfunctions._series_jets(chi(d), p, W, [(s, order)])
    assert got_to == good_to
    got = [PadicNumber.from_exact(p, c, good_to) for c in jets]
    assert [(x.valuation, x.residue(good_to)) for x in got] == expected


def test_series_jets_rejects_non_integral_coefficients(monkeypatch):
    # a B_4 with 5^9 in its denominator cannot be made 5-integral by p^K
    real = lfunctions.bernoulli_number
    monkeypatch.setattr(lfunctions, "bernoulli_number",
                        lambda j: Fraction(1, 5 ** 9) if j == 4 else real(j))
    with pytest.raises(ConsistencyError, match="u_4 is not 5-integral"):
        lfunctions._series_jets(chi(-4), 5, 12, [(0, 1)])


def test_logs_by_additivity_match_plog():
    p, M = 3, 14
    psi = chi(-56).teichmuller_twist(1, p)
    units = [a for a in range(1, psi.modulus + 1)
             if math.gcd(a, psi.modulus) == 1]
    brackets = [angle_bracket(a, p, M).residue(M) for a in units]
    for a, lam in zip(units, lfunctions._logs(units, brackets, p, M)):
        assert lam == plog(angle_bracket(a, p, M)).residue(M), a


def test_series_jets_checks_every_point_first(monkeypatch):
    # a bad point anywhere in the list raises before any residue is built
    def unbuilt(*args):
        raise AssertionError("the residue rows must not be built")

    monkeypatch.setattr(lfunctions, "teichmuller_lift", unbuilt)
    unit = PadicNumber.from_exact(5, 3, 10)
    with pytest.raises(PoleError):
        lfunctions._series_jets(chi(-4), 5, 12, [(0, 1), (25, 0), (1, 0)])
    with pytest.raises(DomainError):
        lfunctions._series_jets(chi(-4), 5, 12, [(0, 0), (unit, 0)])
    with pytest.raises(UnsupportedPoleError):
        lfunctions._series_jets(chi(-3), 3, 12, [(0, 1), (9, 0)])


def test_series_jets_points_match_single_calls():
    # each point of a multi-point call equals the same point called alone
    p, W = 7, 16
    s_padic = PadicNumber.from_exact(p, Fraction(5 * p, 2), 12)
    points = [(0, 1), (p ** 2, 0), (-3, 0), (s_padic, 0)]
    together = lfunctions._series_jets(chi(-20), p, W, points)
    alone = [lfunctions._series_jets(chi(-20), p, W, [pt])[0] for pt in points]
    assert together == alone


# -- oracles: Fraction rows per point, <a>^(1-s) by its residue exponent -----

def _oracle_binomial_jets(sigma, F, bern, order, p, pm):
    """Row j: p d_j[i] mod pm, each entry one exact Fraction p B_j F^j/j! x."""
    rows = []
    poly = [1] + [0] * order
    scale = Fraction(p)
    for j, b in enumerate(bern):
        if j:
            c = 1 - sigma - (j - 1)
            poly = [poly[0] * c] + [poly[i] * c - poly[i - 1]
                                    for i in range(1, order + 1)]
            scale = scale * F / j
        row = []
        for x in poly:
            y = scale * b * x
            assert y.denominator % p, (j, order)
            row.append(y.numerator * pow(y.denominator, -1, pm) % pm)
        rows.append(row)
    return rows


def _oracle_series_jets(chi_, p, W, points):
    """Each point on its own: every row j, every a, plain powers and plog."""
    psi = chi_.teichmuller_twist(1, p)
    top = max(order for _, order in points)
    M = W + 1 + v_p(math.factorial(top), p) + 2
    pm, F = p ** M, psi.modulus
    bern = [bernoulli_number(j) for j in range(2 * W + 11)]
    units = [a for a in range(1, F + 1) if math.gcd(a, F) == 1]
    out = []
    for s, order in points:
        if isinstance(s, PadicNumber):
            eff = min(W, s.precision)
            sigma, good_to = s.residue(eff), min(W - 4, eff)
        else:
            sigma, good_to = s, W - 4
        d = _oracle_binomial_jets(sigma, F, bern, order, p, pm)
        fact = math.factorial(order)
        total = [0] * (order + 1)
        for a in units:
            c = psi(a, M)
            c = c.residue(M) if isinstance(c, PadicNumber) else int(c) % pm
            ang = angle_bracket(a, p, M)
            lam = plog(ang).residue(M)
            inv = pow(a, -1, pm)
            inner = [sum(row[i] * pow(inv, j, pm) for j, row in enumerate(d))
                     for i in range(order + 1)]
            w = c * pow(ang.residue(M), (1 - sigma) % p ** (M - 1), pm)
            ajet = [w * (fact // math.factorial(t)) * (-lam) ** t
                    for t in range(order + 1)]
            for i in range(order + 1):
                total[i] += sum(ajet[t] * inner[i - t] for t in range(i + 1))
        K = 1 + v_p(fact, p)
        unit_inv = pow(fact // p ** v_p(fact, p), -1, pm)
        scaled = [Fraction(x * unit_inv % pm, p ** K) for x in total]
        pref = [Fraction((-1) ** i, F * (sigma - 1) ** (i + 1))
                for i in range(order + 1)]
        out.append(([sum(scaled[t] * pref[i - t] for t in range(i + 1))
                     for i in range(order + 1)], good_to))
    return out


# the engine sums a < F/2 and doubles; the oracle sums every a <= F
ORACLE_PRIMES = [(3, -4), (3, -20), (3, -56), (5, -4), (5, -7), (5, -23),
                 (7, -3), (7, -8), (7, -19), (11, -3), (11, -7), (13, -4),
                 (13, -7)]


def _oracle_points(p, W):
    # exponents (1 - s) mod p^(M-1) on both sides of p^(M-1)/2: s = 0 and
    # negative s take the short positive one, s = p^m and every p-adic s
    # in pZ_p (residues p, p^W - p and that of 5p/2) the short negative one
    padic = [PadicNumber.from_exact(p, x, W + 3)
             for x in (p, -p, Fraction(5 * p, 2))]
    return ([(0, 1)] + [(p ** m, 0) for m in (2, 3, 4)]
            + [(-1, 0), (-4, 2), (0, 3)] + [(s, 1) for s in padic])


@pytest.mark.parametrize("p,d", ORACLE_PRIMES)
def test_binomial_jets_match_the_fraction_oracle(p, d):
    # the shared scaled-Bernoulli row times each point's integer polynomial
    # gives the rows the per-point Fractions gave, at every order 0..3; the
    # odd rows j > 1, which are not built, are zero in the oracle
    W = 12
    F = chi(d).teichmuller_twist(1, p).modulus
    bern = [bernoulli_number(j) for j in range(2 * W + 11)]
    for order in range(4):
        pm = p ** (W + 1 + v_p(math.factorial(order), p) + 2)
        scaled = lfunctions._scaled_bernoulli(F, bern, p, pm)
        for s, _ in _oracle_points(p, W):
            sigma = s.residue(W) if isinstance(s, PadicNumber) else s
            even, odd = lfunctions._binomial_jets(sigma, scaled, order, pm)
            rows = _oracle_binomial_jets(sigma, F, bern, order, p, pm)
            assert even == rows[0::2], (order, s)
            assert odd == rows[1], (order, s)
            assert not any(any(row) for row in rows[3::2]), (order, s)


@pytest.mark.parametrize("p,d", ORACLE_PRIMES)
def test_series_jets_match_the_oracle(p, d):
    W = 12
    points = _oracle_points(p, W)
    four = points[:4]
    assert (lfunctions._series_jets(chi(d), p, W, four)
            == _oracle_series_jets(chi(d), p, W, four))
    for pt in points[4:]:
        assert (lfunctions._series_jets(chi(d), p, W, [pt])
                == _oracle_series_jets(chi(d), p, W, [pt])), pt
    # every point in one call, so at the working precision of order 3
    assert (lfunctions._series_jets(chi(d), p, W, points)
            == _oracle_series_jets(chi(d), p, W, points))


def test_series_jets_reject_an_odd_psi():
    # chi even makes psi = chi*omega odd: the full sum cancels to 0 mod
    # p^good_to, but a sum over a < F/2 would not
    [(full, good_to)] = _oracle_series_jets(chi(5), 3, 12, [(0, 1)])
    assert all(v_p(x, 3) >= good_to for x in full)
    with pytest.raises(DomainError, match="even"):
        lfunctions._series_jets(chi(5), 3, 12, [(0, 1)])
    with pytest.raises(DomainError, match="even"):
        lfunctions._series_jets(chi(12), 7, 12, [(-1, 0)])
