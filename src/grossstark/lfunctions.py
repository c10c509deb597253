"""Kubota-Leopoldt p-adic L-functions and the analytic Gross-Stark invariant.

The p-adic L-function is evaluated by the finite-sum Bernoulli-tail series

    L_p(chi*omega, s) = 1/(F(s-1)) * sum_{a=1, p∤a}^{F} psi(a) <a>^{1-s}
                        * sum_{j>=0} binom(1-s, j) B_j (F/a)^j

with psi = chi*omega as a function and F its modulus (divisible by p).  The
series is artifact plumbing; the contract is the interpolation property
L_p(chi*omega, n) = L*(chi*omega^n, n) at integers n <= 0, which the tests
check against the exact generalized-Bernoulli route.

Derivatives in s are taken by running the same sum over truncated dual
numbers (jets in a formal increment delta), and cross-checked against finite
differences at s = p^m.  All internal arithmetic is exact on integer
representatives modulo p^W with W = N + 8; results are declared at absolute
precision N, leaving a documented noise margin of at least four digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .characters import DirichletCharacter, bernoulli_number, gen_bernoulli
from .errors import (ConsistencyError, DomainError, PoleError,
                     UnsupportedPoleError)
from .padic import PadicNumber, angle_bracket, plog, v_p

_MARGIN = 8


@dataclass(frozen=True)
class LSeriesInstance:
    """A (p, chi) pair with working precision, plus the Euler-split data.

    R = {p} when chi(p) = 1 (the exceptional-zero case, r = 1) and
    R' = {p} when chi(p) is neither 0 nor 1; over Q these sets have at most
    one element.
    """

    p: int
    chi: DirichletCharacter
    N: int = 12

    def __post_init__(self):
        if self.p < 3 or not sympy.isprime(self.p):
            raise DomainError(f"p must be an odd prime, got {self.p}")
        if not self.chi.is_odd:
            raise DomainError("chi must be odd")
        if self.N < 1:
            raise DomainError("precision N must be positive")

    @property
    def chi_at_p(self) -> Fraction:
        return self.chi(self.p)

    @property
    def R(self) -> frozenset:
        return frozenset({self.p}) if self.chi_at_p == 1 else frozenset()

    @property
    def Rprime(self) -> frozenset:
        c = self.chi_at_p
        return frozenset({self.p}) if c != 0 and c != 1 else frozenset()

    @property
    def r(self) -> int:
        return len(self.R)

    @property
    def twist(self) -> DirichletCharacter:
        """chi * omega, the character whose L_p this instance evaluates."""
        return self.chi.teichmuller_twist(1, self.p)


@dataclass(frozen=True)
class LpReport:
    """Everything analytic_invariant learned about one instance."""

    value_at_0: PadicNumber
    derivative_at_0: PadicNumber
    classical_value: object
    l_an: PadicNumber
    r: int
    r_an_lower_bound: int
    precision: int

    @property
    def has_exceptional_zero(self) -> bool:
        return self.r >= 1


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


def _exp_fraction(x_rep: int, p: int, W: int) -> Fraction:
    """Fraction congruent to exp(x) mod p^W, given x_rep = x mod p^W, v_p(x) >= 2."""
    total = Fraction(0)
    term_pow = 1
    for k in range(W + 1):
        total += Fraction(term_pow, math.factorial(k))
        term_pow *= x_rep
    return total


def _series_jets(chi: DirichletCharacter, p: int, W: int, s, order: int):
    """Taylor coefficients (in a formal increment at s) of L_p(chi*omega, .).

    Returns (coeffs, good_to): order+1 Fractions, each congruent to the
    corresponding Taylor coefficient modulo p^good_to.  good_to is W minus
    a four-digit noise margin, further capped by the precision of a p-adic
    argument s.
    """
    psi = chi.teichmuller_twist(1, p)
    if psi.is_trivial_function:
        raise UnsupportedPoleError(
            "chi equals the inverse Teichmueller character; L_p has a pole")
    F = psi.modulus
    pw = p ** W
    good_to = W - 4
    if isinstance(s, PadicNumber):
        if s.valuation < 1:
            raise DomainError("s must lie in the convergence neighborhood p*Z_p")
        eff = min(W, s.precision)
        s_int, s_rep = None, s.residue(eff)
        good_to = min(good_to, eff)
    else:
        s_int = int(s)
        if s_int == 1:
            raise PoleError("s = 1 is outside the domain")
        s_rep = s_int % pw
    # tail terms carry (F/a)^j / j! with total valuation >= j(1 - 1/(p-1)) - 1
    jmax = 2 * W + 10
    bern = [bernoulli_number(j) for j in range(jmax + 1)]
    fact = [math.factorial(i) for i in range(order + 1)]
    need_log = order >= 1 or s_int is None
    total = [Fraction(0)] * (order + 1)
    for a in range(1, F + 1):
        if a % p == 0:
            continue
        cv = psi(a, W)
        if isinstance(cv, Fraction):
            if cv == 0:
                continue
            crep = int(cv)
        else:
            if cv.is_zero_to_precision():
                continue
            crep = cv.residue(W)
        ang = angle_bracket(a, p, W)
        ar = ang.residue(W)
        lam = plog(ang).residue(W) if need_log else 0
        # <a>^{1-s-delta} = <a>^{1-s} * exp(-delta * log<a>)
        if s_int is not None:
            base = Fraction(pow(ar, 1 - s_int, pw))
        else:
            base = Fraction(ar) * _exp_fraction(-s_rep * lam % pw, p, W)
        ajet = [base * Fraction(pow(-lam % pw, i, pw), fact[i])
                for i in range(order + 1)]
        # inner sum over j with the running binomial jet binom(1-s-delta, j)
        prod = [Fraction(1)] + [Fraction(0)] * order
        inner = list(prod)
        ratio = Fraction(F, a)
        rpow = Fraction(1)
        for j in range(1, jmax + 1):
            if s_int is not None:
                c0 = Fraction(1 - s_int - (j - 1))
            else:
                c0 = Fraction((1 - s_rep - (j - 1)) % pw)
            nxt = [prod[0] * c0] + [prod[i] * c0 - prod[i - 1]
                                    for i in range(1, order + 1)]
            prod = [x / j for x in nxt]
            rpow *= ratio
            if bern[j]:
                w = bern[j] * rpow
                for i in range(order + 1):
                    inner[i] += prod[i] * w
        for i in range(order + 1):
            piece = Fraction(0)
            for t in range(i + 1):
                piece += ajet[t] * inner[i - t]
            total[i] += crep * piece
    # prefactor 1/(F (s - 1 + delta)) as a jet
    if s_int is not None:
        q = Fraction(1, s_int - 1)
        pref = [Fraction((-1) ** i, F) * q ** (i + 1) for i in range(order + 1)]
    else:
        qinv = pow((s_rep - 1) % pw, -1, pw)
        pref = [Fraction((-1) ** i * pow(qinv, i + 1, pw), F)
                for i in range(order + 1)]
    out = []
    for i in range(order + 1):
        piece = Fraction(0)
        for t in range(i + 1):
            piece += total[t] * pref[i - t]
        out.append(piece)
    return out, good_to


def kubota_leopoldt(instance: LSeriesInstance, s=0) -> PadicNumber:
    """L_p(chi*omega, s) at the instance's precision.

    s may be an int (any value except the pole at 1) or a PadicNumber in
    p*Z_p.  At integers n <= 0 the result satisfies the interpolation
    identity L_p(chi*omega, n) = L*(chi*omega^n, n).
    """
    W = instance.N + _MARGIN
    jets, good_to = _series_jets(instance.chi, instance.p, W, s, 0)
    return PadicNumber.from_exact(
        instance.p, jets[0], min(instance.N, good_to))


def _jets_at_0(instance: LSeriesInstance, order: int) -> list:
    """Taylor coefficients 0..order of L_p(chi*omega, s) at s = 0.

    The integer point s = 0 keeps W - 4 = N + 4 good digits, so every
    coefficient may be declared at the instance's precision N.
    """
    W = instance.N + _MARGIN
    return _series_jets(instance.chi, instance.p, W, 0, order)[0]


def lp_derivative_at_0(instance: LSeriesInstance) -> PadicNumber:
    """d/ds L_p(chi*omega, s) at s = 0, by termwise differentiation.

    The value is compared against the finite differences
    (L_p(p^m) - L_p(0))/p^m for m = 2, 3, 4, which must agree to within
    O(p^(m-1)); disagreement raises ConsistencyError.
    """
    return _checked_derivative(instance, _jets_at_0(instance, 1))


def _checked_derivative(instance: LSeriesInstance, jets) -> PadicNumber:
    p, W = instance.p, instance.N + _MARGIN
    d1 = jets[1]
    check_to = min(instance.N, 3)
    for m in (2, 3, 4):
        lm = _series_jets(instance.chi, p, W, p ** m, 0)[0][0]
        fd = (lm - jets[0]) / p ** m
        if v_p(fd - d1, p) < min(m - 1, check_to):
            raise ConsistencyError(
                f"finite difference at p^{m} disagrees with the "
                f"termwise derivative (valuation {v_p(fd - d1, p)})")
    return PadicNumber.from_exact(p, d1, instance.N)


def order_probe(instance: LSeriesInstance, max_r: int = 3) -> dict:
    """Precision-bounded lower bound on ord_{s=0} L_p(chi*omega, s).

    Reports the largest j <= max_r such that the Taylor coefficients below j
    all vanish to working tolerance (N - 2 digits).  This witnesses
    ord >= j; it never proves vanishing.  With N < 6 the report declines to
    draw a conclusive line.
    """
    jets = _jets_at_0(instance, max_r) if instance.N >= 2 else None
    return _probe(instance, jets)


def _probe(instance: LSeriesInstance, jets) -> dict:
    """order_probe's report from the s = 0 jets 0..max_r (unused when N < 2)."""
    N, p = instance.N, instance.p
    if N < 2:
        return {"order_lower_bound": 0, "coefficient_valuations": [],
                "precision": N, "conclusive": False,
                "note": "precision too low to probe"}
    tol = N - 2
    vals = [PadicNumber.from_exact(p, c, N).valuation for c in jets]
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
        "conclusive": N >= 6 and any(v < tol for v in vals),
        "note": "lower-bound witness only; vanishing is precision-bounded",
    }


def analytic_invariant(instance: LSeriesInstance) -> LpReport:
    """The analytic invariant L_an(chi) = L_p^(r)(chi*omega, 0) / (r! L(chi,0) prod(1-chi(p))).

    For r = 1 the deleted product is empty and L_an = L_p'(0)/L(chi, 0); for
    r = 0 it reduces to L_p(0) over the classical value times the surviving
    Euler factor, which the interpolation property forces to be 1.
    """
    jets = _jets_at_0(instance, 1)
    L0 = PadicNumber.from_exact(instance.p, jets[0], instance.N)
    classic = classical_L_at_nonpositive(instance.chi, 0)
    d1 = _checked_derivative(instance, jets)
    if instance.r == 1:
        lan = d1 / classic
    else:
        denom = classic
        for _ in instance.Rprime:
            denom = denom * (1 - instance.chi_at_p)
        lan = L0 / denom
    probe = _probe(instance, jets)
    return LpReport(
        value_at_0=L0,
        derivative_at_0=d1,
        classical_value=classic,
        l_an=lan,
        r=instance.r,
        r_an_lower_bound=probe["order_lower_bound"],
        precision=instance.N,
    )
