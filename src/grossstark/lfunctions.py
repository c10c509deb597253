"""Kubota-Leopoldt p-adic L-functions and the analytic Gross-Stark invariant.

The p-adic L-function is evaluated by the finite-sum Bernoulli-tail series
(Washington, Cyclotomic Fields, Thm 5.11)

    L_p(chi*omega, s) = 1/(F(s-1)) * sum_{a=1, p∤a}^{F} psi(a) <a>^{1-s}
                        * sum_{j>=0} binom(1-s, j) B_j (F/a)^j

with psi = chi*omega as a function and F its modulus (divisible by p).  The
series is artifact plumbing; the contract is the interpolation property
L_p(chi*omega, n) = L*(chi*omega^n, n) at integers n <= 0, which the tests
check against the exact generalized-Bernoulli route.

psi is even (chi is odd), so the term of F - a equals the term of a at every
s, jets included: B_n(1 - x) = (-1)^n B_n(x) gives it at s = 1 - n, and
continuity in s carries it from the dense set of positive n to all of the
domain.  The engine sums over a < F/2 and doubles the total; an odd psi
raises DomainError, since its true sum cancels to 0 and the halved one
would not.

Derivatives in s are taken by running the same sum over truncated dual
numbers (jets in a formal increment delta), and cross-checked against finite
differences at s = p^m.  Results are declared at absolute precision N and
the sum is worked to W = N + 8 digits, leaving a documented noise margin of
at least four digits.

The sum over a runs on plain integers modulo p^M, M = W + K + 2, with K
taken at the highest order among the evaluation points:

- The coefficients d_j = jet(binom(1-s-delta, j)) B_j F^j depend only on s
  and j.  The scaled Bernoulli row u_j = p B_j F^j / j! is the same for
  every point, so it is built once per call, one exact Fraction per j,
  and reduced mod p^M; each point multiplies its own integer binomial
  polynomial (kept mod p^M) by u_j.  The factor p covers the p in the
  denominator of B_j (von Staudt-Clausen; v_p(F^j/j!) >= 0 covers the
  rest), and v_p(order!) more digits are kept for the exp-jets below,
  K = 1 + v_p(order!) in all.  Each u_j is checked once per call, where
  the row is built: one that is not p-integral raises ConsistencyError,
  and every product of a p-integral u_j with an integer is p-integral.
- For each a the inner sum over j is a Horner loop in a^-2 over the even
  j, plus the single odd term d_1 a^-1 (B_j = 0 for odd j > 1).
- One exponent rule serves integer and p-adic s alike: <a> generates a
  subgroup of (1 + pZ)/p^M of order dividing p^(M-1), so <a>^(1-s) may
  use any e = 1-s mod p^(M-1); the engine takes the e of least absolute
  value.  A negative e is raised on <a>^-1: s = p^m costs a (p^m - 1)-th
  power instead of one by a residue of about M digits, and s <= 0 a
  (1-s)-th power.
- exp(-delta log<a>) contributes (-log<a>)^t / t!; the loop multiplies by
  order!/t! instead and divides by order! once after the loop.
- <a> = a omega(a^-1) and <a>^-1 = a^-1 omega(a) are ints read off the
  memoized Teichmueller lifts omega(r), r = 1..p-1.
- One call takes every evaluation point (s, order) that a public function
  needs, such as s = 0 and the three finite-difference points of
  `analytic_invariant`.  psi(a), <a>, a^-1 and log_p<a> mod p^M are built
  once in that call and one loop over a serves every point; nothing is
  cached across calls.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .characters import DirichletCharacter, bernoulli_number, gen_bernoulli
from .errors import (ConsistencyError, DomainError, PoleError,
                     UnsupportedPoleError)
from .padic import (Immutable, PadicNumber, is_prime, plog, teichmuller_lift,
                    v_p)

_MARGIN = 8
CONCLUSIVE_PRECISION = 6  # below this N no pass or fail is conclusive


def working_precision(N: int) -> int:
    """W: the digits the series engine works to for a result declared at N."""
    return N + _MARGIN


class LSeriesInstance(Immutable):
    """An odd prime p, an odd character chi and the declared precision N."""

    __slots__ = ("p", "chi", "N")

    def __init__(self, p: int, chi: DirichletCharacter, N: int = 12):
        if p < 3 or not is_prime(p):
            raise DomainError(f"p must be an odd prime, got {p}")
        if not chi.is_odd:
            raise DomainError("chi must be odd")
        if N < 1:
            raise DomainError("precision N must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "N", N)


# -- exact side ---------------------------------------------------------


def classical_L_at_nonpositive(chi: DirichletCharacter, n: int, prec=None):
    """L(chi, n) = -B_{1-n, chi}/(1-n) for n <= 0, exact for real chi."""
    if n > 0:
        raise DomainError("only non-positive arguments are supported")
    if chi.modulus == 1 and n == 0:
        raise PoleError("the trivial character has a pole obstruction at 0")
    k = 1 - n
    return gen_bernoulli(k, chi, prec) * Fraction(-1, k)


def lstar(chi: DirichletCharacter, n: int, p: int, prec=None):
    """L*(chi, n): the L-value with the Euler factor at p deleted.

    Computed as the classical value of the modulus-raised character, which
    equals L(chi, n) * (1 - chi(p) p^{-n}) for n <= 0.
    """
    return classical_L_at_nonpositive(chi.raise_modulus({p}), n, prec)


# -- series engine ------------------------------------------------------

# one power of p clears the p that B_j may have in its denominator
_HEADROOM = 1
# the finite differences that check the s = 0 derivative sit at s = p^m
_FD_EXPONENTS = (2, 3, 4)


def _logs(units: list, brackets: list, p: int, M: int) -> list:
    """log_p<a> mod p^M for the ascending units a, the first of them 1.

    brackets holds <a> mod p^M for each unit.  plog runs on the prime units;
    the composites follow by additivity (log_p is a homomorphism on Z_p^x).
    """
    spf = _smallest_prime_factors(units[-1])
    # the factors of a unit a are units below a, so already known
    log = {1: 0}
    for a, ang in zip(units[1:], brackets[1:]):
        q = spf[a]
        if q == a:
            log[a] = plog(PadicNumber(p, 0, ang, M)).residue(M)
        else:
            log[a] = (log[q] + log[a // q]) % p ** M
    return [log[a] for a in units]


def _smallest_prime_factors(n: int) -> list:
    """spf[m] = the smallest prime factor of m, for 2 <= m <= n."""
    spf = list(range(n + 1))
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == q:
            for m in range(q * q, n + 1, q):
                if spf[m] == m:
                    spf[m] = q
    return spf


def _scaled_bernoulli(F: int, bern: list, p: int, pm: int) -> list:
    """u_j = p^_HEADROOM B_j F^j / j! mod pm, the row every point shares.

    A u_j that is not p-integral raises ConsistencyError, once per call.
    """
    out = []
    num, den = p ** _HEADROOM, 1  # p^_HEADROOM F^j and j!
    for j, b in enumerate(bern):
        if j:
            num *= F
            den *= j
        u = Fraction(num * b.numerator, den * b.denominator)
        if u.denominator % p == 0:
            raise ConsistencyError(f"scaled Bernoulli coefficient u_{j} is not "
                                   f"{p}-integral after scaling by {p}^{_HEADROOM}")
        out.append(u.numerator * pow(u.denominator, -1, pm) % pm)
    return out


def _binomial_jets(sigma: int, scaled: list, order: int, pm: int) -> tuple:
    """Rows j = 0, 2, 4, ... and row 1 of p^_HEADROOM d_j[i] mod pm, i = 0..order.

    scaled is the checked row of u_j from _scaled_bernoulli; the integer
    binomial polynomial is kept mod pm, so each entry is one product with
    u_j.  The odd rows j > 1 (u_j = 0) are not built.
    """
    rows = []
    poly = [1] + [0] * order  # prod_{k<j} (1 - sigma - k - delta), truncated
    for j, u in enumerate(scaled):
        if j:
            c = 1 - sigma - (j - 1)
            poly = [poly[0] * c % pm] + [(poly[i] * c - poly[i - 1]) % pm
                                         for i in range(1, order + 1)]
        if j % 2 == 0 or j == 1:
            rows.append([x * u % pm for x in poly])
    return rows[:1] + rows[2:], rows[1]


def _horner(rows: list, i: int) -> list:
    """Column i of rows, highest nonzero entry first, for a Horner loop."""
    coeffs = [row[i] for row in rows]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs[::-1]


def _series_jets(chi: DirichletCharacter, p: int, W: int, points) -> list:
    """Taylor coefficients (in a formal increment at s) of L_p(chi*omega, .).

    points is a sequence of (s, order).  Returns one (coeffs, good_to) per
    point: order+1 Fractions, each congruent to the corresponding Taylor
    coefficient modulo p^good_to.  good_to is W minus a four-digit noise
    margin, further capped by the precision of a p-adic argument s.  Every
    point is checked before anything is built, and one loop over a serves
    them all.
    """
    psi = chi.teichmuller_twist(1, p)
    if psi.is_odd:
        raise DomainError("chi*omega must be even: chi must be odd")
    if psi.is_trivial_function:
        raise UnsupportedPoleError(
            "chi equals the inverse Teichmueller character; L_p has a pole")
    sigmas = []  # (sigma, good_to) per point
    for s, _ in points:
        if isinstance(s, PadicNumber):
            if s.valuation < 1:
                raise DomainError(
                    "s must lie in the convergence neighborhood p*Z_p")
            eff = min(W, s.precision)
            sigmas.append((s.residue(eff), min(W - 4, eff)))
        elif int(s) == 1:
            raise PoleError("s = 1 is outside the domain")
        else:
            sigmas.append((int(s), W - 4))
    top = max(order for _, order in points)
    M = W + _HEADROOM + v_p(math.factorial(top), p) + 2
    pm = p ** M
    F = psi.modulus
    # tail terms carry (F/a)^j / j! with total valuation >= j(1 - 1/(p-1)) - 1
    jmax = 2 * W + 10
    bernoulli_number(jmax)  # fills a cold table in one pass
    bern = [bernoulli_number(j) for j in range(jmax + 1)]
    scaled = _scaled_bernoulli(F, bern, p, pm)
    q = p ** (M - 1)  # the order of <a> divides q
    passes = []
    for (sigma, _), (_, order) in zip(sigmas, points):
        even, d1 = _binomial_jets(sigma, scaled, order, pm)
        fact = math.factorial(order)
        exponent = (1 - sigma) % q
        passes.append((range(order + 1),
                       [_horner(even, i) for i in range(order + 1)],
                       d1,  # the one odd row: B_j = 0 for odd j > 1
                       [fact // math.factorial(t) for t in range(order + 1)],
                       exponent if exponent <= q // 2 else exponent - q))
    units, rows = [], []
    # psi is even, so the term of F - a is the term of a: sum a < F/2, twice
    for a in range(1, (F + 1) // 2):
        c = psi.residue(a, M) % pm
        if not c:
            continue
        inv = pow(a, -1, pm)
        units.append(a)
        # <a> = a omega(a^-1) and <a>^-1 = a^-1 omega(a)
        rows.append((c, a * teichmuller_lift(inv % p, p, M) % pm,
                     inv * teichmuller_lift(a % p, p, M) % pm, inv))
    logs = _logs(units, [r[1] for r in rows], p, M) if top else [0] * len(rows)
    totals = [[0] * len(ords) for ords, *_ in passes]
    for (c, ang, ang_inv, inv), lam in zip(rows, logs):
        inv2 = inv * inv % pm
        for (ords, even, d1, falling, exponent), total in zip(passes, totals):
            inner = []
            for i in ords:
                acc = 0
                for e in even[i]:
                    acc = (acc * inv2 + e) % pm
                inner.append(acc + inv * d1[i])
            # <a>^{1-s-delta} = <a>^{1-s} exp(-delta log<a>), times order!
            if exponent >= 0:
                w = c * pow(ang, exponent, pm) % pm
            else:
                w = c * pow(ang_inv, -exponent, pm) % pm
            ajet = []
            for t in ords:
                ajet.append(w * falling[t])
                w = w * -lam % pm
            for i in ords:
                total[i] += sum(ajet[t] * inner[i - t] for t in range(i + 1))
    out = []
    for (sigma, good_to), (_, order), total in zip(sigmas, points, totals):
        fact = math.factorial(order)
        K = _HEADROOM + v_p(fact, p)
        # the p-part of order! sits in K; divide out its unit part
        unit_inv = pow(fact // p ** v_p(fact, p), -1, pm)
        scaled = [Fraction(2 * x * unit_inv % pm, p ** K) for x in total]
        # prefactor 1/(F (s - 1 + delta)) as a jet
        pref = [Fraction((-1) ** i, F * (sigma - 1) ** (i + 1))
                for i in range(order + 1)]
        out.append(([sum(scaled[t] * pref[i - t] for t in range(i + 1))
                     for i in range(order + 1)], good_to))
    return out


def _declared(p: int, x: Fraction, N: int) -> PadicNumber:
    """A series coefficient known modulo p^N: a zero residue is O(p^N), not exact."""
    return PadicNumber.from_exact(p, x, N) if x else PadicNumber(p, N, 0, N)


def kubota_leopoldt(instance: LSeriesInstance, s=0) -> PadicNumber:
    """L_p(chi*omega, s) at the instance's precision.

    s may be an int (any value except the pole at 1) or a PadicNumber in
    p*Z_p.  At integers n <= 0 the result satisfies the interpolation
    identity L_p(chi*omega, n) = L*(chi*omega^n, n).
    """
    W = working_precision(instance.N)
    [(jets, good_to)] = _series_jets(instance.chi, instance.p, W, [(s, 0)])
    return _declared(instance.p, jets[0], min(instance.N, good_to))


def _s0_jets(instance: LSeriesInstance):
    """The s = 0 jets to order 1, and L_p'(0) checked by finite differences.

    One series call serves s = 0 and the points s = p^m.  The integer point
    s = 0 keeps W - 4 = N + 4 good digits, so both jets may be declared at
    the instance's precision N.  Each (L_p(p^m) - L_p(0))/p^m must agree
    with the termwise derivative to within O(p^(m-1)); disagreement raises
    ConsistencyError.  Returns (jets, d1) with d1 declared at N.
    """
    p = instance.p
    points = [(0, 1)] + [(p ** m, 0) for m in _FD_EXPONENTS]
    (jets, _), *rest = _series_jets(instance.chi, p,
                                   working_precision(instance.N), points)
    d1 = jets[1]
    check_to = min(instance.N, 3)
    for m, (values, _) in zip(_FD_EXPONENTS, rest):
        fd = (values[0] - jets[0]) / p ** m
        if v_p(fd - d1, p) < min(m - 1, check_to):
            raise ConsistencyError(
                f"finite difference at p^{m} disagrees with the "
                f"termwise derivative (valuation {v_p(fd - d1, p)})")
    return jets, _declared(p, d1, instance.N)


def lp_derivative_at_0(instance: LSeriesInstance) -> PadicNumber:
    """d/ds L_p(chi*omega, s) at s = 0, by termwise differentiation.

    The value is compared against the finite differences
    (L_p(p^m) - L_p(0))/p^m for m = 2, 3, 4, which must agree to within
    O(p^(m-1)); disagreement raises ConsistencyError.
    """
    return _s0_jets(instance)[1]


def order_probe(instance: LSeriesInstance, max_r: int = 3) -> dict:
    """Precision-bounded lower bound on ord_{s=0} L_p(chi*omega, s).

    Reports the largest j <= max_r such that the Taylor coefficients below j
    all vanish to working tolerance (N - 2 digits).  This witnesses
    ord >= j; it never proves vanishing.  With N < CONCLUSIVE_PRECISION the
    report declines to draw a conclusive line.
    """
    N, p = instance.N, instance.p
    [(jets, _)] = _series_jets(instance.chi, p, working_precision(N),
                               [(0, max_r)])
    if N < 2:
        return {"order_lower_bound": 0, "coefficient_valuations": [],
                "precision": N, "conclusive": False,
                "note": "precision too low to probe"}
    tol = N - 2
    vals = [_declared(p, c, N).valuation for c in jets]
    bound = 0
    for v in vals:
        if v >= tol:
            bound += 1
        else:
            break
    bound = min(bound, len(jets) - 1)
    return {
        "order_lower_bound": bound,
        "coefficient_valuations": vals,
        "precision": N,
        "conclusive": N >= CONCLUSIVE_PRECISION and any(v < tol for v in vals),
        "note": "lower-bound witness only; vanishing is precision-bounded",
    }


def analytic_invariant(instance: LSeriesInstance) -> tuple:
    """(L_an, L(chi, 0)) with L_an = L_p'(chi*omega, 0) / L(chi, 0), for r = 1.

    Over Q, r = 1 exactly when chi(p) = 1, else r = 0.  L_an is the leading
    term only when L_p(0) vanishes to N digits (the exceptional zero), else
    ConsistencyError.  r = 0 raises DomainError: its statement
    L_p(chi*omega, 0) = L*(chi, 0) is the interpolation property at n = 0.
    """
    if instance.chi(instance.p) != 1:
        raise DomainError("analytic_invariant needs r = 1, got r = 0")
    jets, d1 = _s0_jets(instance)
    L0 = _declared(instance.p, jets[0], instance.N)
    if not L0.is_zero_to_precision():
        raise ConsistencyError(
            f"no exceptional zero: L_p(chi*omega, 0) has valuation "
            f"{L0.valuation} < {instance.N}")
    classic = classical_L_at_nonpositive(instance.chi, 0)
    return d1 / classic, classic
