"""q-expansions of Eisenstein series over Q, Hecke operators, and the F_k forms.

Coefficients are ints past a Fraction c(0) when the character is real,
PadicNumbers otherwise, so the U_p identities can be checked bit-exactly.
Operators track a reliability horizon instead of zero-padding: T_ell and
U_ell output is reliable only to floor(N_q / ell).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .characters import DirichletCharacter
from .errors import (ConsistencyError, DegenerateInstanceError, DomainError,
                     PrecisionError)
from .lfunctions import LSeriesInstance, classical_L_at_nonpositive
from .padic import Immutable, PadicNumber, is_zero


class QExpansion(Immutable):
    """Truncated q-expansion: weight, nebencharacter, coefficients 0..reliable_to."""

    __slots__ = ("weight", "character", "coeffs", "prec")

    def __init__(self, weight, character, coeffs, prec=None):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "character", character)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec", prec)

    @property
    def reliable_to(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n > self.reliable_to:
            raise PrecisionError(
                f"coefficient {n} beyond the reliable horizon {self.reliable_to}")
        return self.coeffs[n]

    def truncate(self, n: int) -> "QExpansion":
        if n > self.reliable_to:
            raise PrecisionError("cannot extend a truncation")
        return QExpansion(self.weight, self.character, self.coeffs[: n + 1], self.prec)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:5])
        return (f"QExpansion(weight={self.weight}, character={self.character}, "
                f"[{head}, ...], reliable_to={self.reliable_to})")

    def _merge_prec(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        if self.weight != other.weight:
            raise DomainError("weights differ")
        n = min(self.reliable_to, other.reliable_to)
        return QExpansion(
            self.weight, self.character,
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
            self._merge_prec(other))

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicNumber)):
            return QExpansion(self.weight, self.character,
                              [c * other for c in self.coeffs], self.prec)
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(self.reliable_to, other.reliable_to)
        out = []
        for m in range(n + 1):
            acc = Fraction(0)
            for i in range(m + 1):
                a, b = self.coeffs[i], other.coeffs[m - i]
                if is_zero(a) or is_zero(b):
                    continue
                acc = acc + a * b
            out.append(acc)
        return QExpansion(self.weight + other.weight,
                          self.character * other.character, out,
                          self._merge_prec(other))

    __rmul__ = __mul__


def eisenstein(k: int, eta: DirichletCharacter, support=(), n_terms: int = 200,
               prec: int | None = None) -> QExpansion:
    """E_k(1, eta) with the modulus raised along `support`.

    c(n) = sum over divisors d of n coprime to the raised modulus of
    eta(d) d^{k-1}, built by a divisor sieve: for d = 1, 2, ... in turn the
    int `residue` is taken once and eta(d) d^{k-1} added to every multiple
    of d.  So each c(n) sums its divisors in ascending order, in
    O(n_terms log n_terms) steps, and stays an int for a real eta, or is made
    a PadicNumber at prec (p divides a p-adic modulus, so p ∤ d).  The
    constant term is the Fraction L(eta_raised, 1-k)/2.  The weight-2
    level-one series is not a modular form and is rejected.
    """
    if k < 1:
        raise DomainError("weight must be at least 1")
    etaJ = eta.raise_modulus(support)
    if etaJ.parity != (-1) ** k:
        raise DomainError(f"parity mismatch: eta(-1) != (-1)^{k}")
    if k == 2 and etaJ.modulus == 1:
        raise DomainError("E_2 at level one is not a modular form (exceptional case)")
    c0 = classical_L_at_nonpositive(etaJ, 1 - k, prec) * Fraction(1, 2)
    n = max(n_terms, 0)
    coeffs = [0] * (n + 1)
    for d in range(1, n + 1):
        v = etaJ.residue(d, prec)
        if v:
            term = v * d ** (k - 1)
            for m in range(d, n + 1, d):
                coeffs[m] += term
    if not etaJ.is_rational:
        coeffs = [PadicNumber(etaJ.p, 0, c, prec) for c in coeffs]
    coeffs[0] = c0
    return QExpansion(k, etaJ, coeffs, prec)


def eisenstein_two_char(k: int, eta: DirichletCharacter, psi: DirichletCharacter,
                        n_terms: int = 200, prec: int | None = None) -> QExpansion:
    """E_k(eta, psi): c(n) = sum_{d|n} eta(n/d) psi(d) d^{k-1}, c(0) = 0.

    The same sieve as `eisenstein`: eta is evaluated once on 1..n_terms,
    psi once per d, and psi(d) d^{k-1} eta(e) is added at m = d e, with d
    ascending.  eta must be nontrivial as a function (this is what kills
    the constant term), and the parities must multiply to (-1)^k.
    """
    if k < 1:
        raise DomainError("weight must be at least 1")
    if eta.is_trivial_function:
        raise DomainError("eta must be nontrivial (otherwise a constant term appears)")
    if eta.parity * psi.parity != (-1) ** k:
        raise DomainError("parity product does not match the weight")
    n = max(n_terms, 0)
    etas = [0] + [eta(e, prec) for e in range(1, n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for d in range(1, n + 1):
        b = psi(d, prec)
        if is_zero(b):
            continue
        dk = d ** (k - 1)
        for e in range(1, n // d + 1):
            if not is_zero(etas[e]):
                coeffs[d * e] += etas[e] * b * dk
    return QExpansion(k, eta * psi, coeffs, prec)


def hecke_T(ell: int, f: QExpansion) -> QExpansion:
    """T_ell = U_ell + chi(ell) ell^{k-1} V_ell, V_ell: c(n) -> c(n/ell) where ell | n."""
    if math.gcd(ell, f.character.modulus) != 1:
        raise DomainError(f"T_{ell} needs ell coprime to the level; use U_{ell}")
    u = hecke_U(ell, f)
    chi = f.character
    # scale is never 0 (ell is coprime to the level), and an int for a real chi
    scale = ((chi.residue(ell) if chi.is_rational else chi(ell, f.prec))
             * ell ** (f.weight - 1))
    return QExpansion(f.weight, chi, [
        c + scale * f.coeffs[n // ell] if n % ell == 0 else c
        for n, c in enumerate(u.coeffs)], f.prec)


def hecke_U(ell: int, f: QExpansion) -> QExpansion:
    """U_ell: c(n) -> c(n ell); horizon divides by ell."""
    if f.reliable_to < ell:
        raise PrecisionError(f"horizon {f.reliable_to} < {ell}")
    out = [f.coeffs[n * ell] for n in range(f.reliable_to // ell + 1)]
    return QExpansion(f.weight, f.character, out, f.prec)


def verify_up_relation(chi: DirichletCharacter, p: int,
                       n_q: int = 200) -> tuple[tuple | None, int]:
    """Check both branches of the U_p shift law on E_1(1, chi_J), bit-exactly.

    Branch 1 (p not in J):  (U_p - 1) E_1(1, chi) = E_1(1, chi_{p}).
    Branch 2 (p in J):      (U_p - 1) E_1(1, chi_{p}) = 0.
    Requires chi(p) = 1, which only a real chi can meet: chi(p) of a p-adic
    chi raises, so no precision is needed.  Both sides are built by two
    separate sieve calls and compared on every reliable coefficient
    including the constant terms.  Returns (first_discrepancy, checked):
    the first failing (branch, n), or None, and the coefficient count.
    """
    if chi(p) != 1:
        raise DomainError("the shift law needs chi(p) = 1")
    E = eisenstein(1, chi, (), n_q)
    EJ = eisenstein(1, chi, (p,), n_q)
    checked = n_q // p + 1  # each zip stops at U_p's horizon n_q // p
    for n, (u, e, ej) in enumerate(zip(hecke_U(p, E).coeffs, E.coeffs, EJ.coeffs)):
        if u - e != ej:
            return ("branch1", n), checked
    for n, (u, ej) in enumerate(zip(hecke_U(p, EJ).coeffs, EJ.coeffs)):
        if u != ej:
            return ("branch2", n), checked
    # (U_p - 1)^2 E = 0 needs no check: for n <= horizon/p, branch 1 gives
    # lhs1(pn) - lhs1(n) = E_J(pn) - E_J(n) = lhs2(n), which branch 2 found 0
    # (lhs1 = (U_p - 1) E, lhs2 = (U_p - 1) E_J).  Exact: chi is real, so
    # E, E_J hold ints past a Fraction c(0).
    return None, checked


def hida_surrogate(k: int, p: int, n_q: int, prec: int | None = None) -> QExpansion:
    """Weight-k stand-in for the Hida family: E_k(1, omega^{-k}) normalized to c(0)=1.

    The character omega^{-k} is raised at p (a no-op unless the Teichmueller
    power is trivial), matching the p-ordinary level of a family
    specialization.  Raises DegenerateInstanceError when the normalizing
    constant term vanishes.
    """
    om = DirichletCharacter.teichmuller_power(p, -k)
    g = eisenstein(k, om, (p,), n_q, prec)
    c0 = g.coeff(0)
    if is_zero(c0):
        raise DegenerateInstanceError(
            "weight-%d Eisenstein constant term vanishes; surrogate undefined" % k)
    return g * (1 / c0)


def build_Fk(k: int, chi: DirichletCharacter, p: int, n_q: int = 200,
             prec: int = 12) -> QExpansion:
    """The weight-k form with forced-zero constant term.

    R' is {p} when chi(p) is neither 0 nor 1, else empty.  With R' nonempty:
        F_k = E_k(1, chi*om^{1-k})
              - E_1(1, chi_{R'}) * G_{k-1} * [L_p(chi om, 1-k) / L(chi_{R'}, 0)]
    With R' empty the subtracted term uses chi itself and a correction by
    E_k(chi, om^{1-k}) scaled by the W-ratio
    [L_p(chi om,1-k)/L(chi,0)] * [L(chi^{-1},0)/L_p(chi^{-1} om,1-k)],
    which collapses to exactly 1 for quadratic chi.

    The combination coefficients use the exact interpolation route
    L_p(chi om, 1-k) = L*(chi om^{1-k}, 1-k), the same expression that feeds
    the Eisenstein constant terms, so the cancellation of c(0) is bit-exact
    in the rational cases; the result's constant term is checked, not
    assumed.
    """
    if k < 2:
        raise DomainError("F_k needs classical weight k >= 2")
    LSeriesInstance(p, chi, prec)  # the guard on p, chi and N
    wprec = prec + 6

    def pr(char):
        return None if char.is_rational else wprec

    tw = chi.teichmuller_twist(1 - k, p)
    main = eisenstein(k, tw, (), n_q, pr(tw))
    lp_val = 2 * main.coeff(0)
    G = hida_surrogate(k - 1, p, n_q,
                       pr(DirichletCharacter.teichmuller_power(p, 1 - k)))
    if chi(p) not in (0, 1):
        aux = chi.raise_modulus({p})
        denom = classical_L_at_nonpositive(aux, 0, pr(aux))
        F = main - eisenstein(1, aux, (), n_q, pr(aux)) * G * (lp_val / denom)
    else:
        denom = classical_L_at_nonpositive(chi, 0, pr(chi))
        ratio = lp_val / denom
        if chi.inverse() == chi:
            # self-inverse character: both L-ratio brackets in the W-value
            # are each other's reciprocals, so the coefficient is exactly 1
            wcoeff = Fraction(1)
        else:
            inv_tw = chi.inverse().teichmuller_twist(1 - k, p)
            lp_inv = classical_L_at_nonpositive(inv_tw, 1 - k, wprec)
            if is_zero(lp_inv):
                raise DegenerateInstanceError(
                    "L_p(chi^{-1} omega, 1-k) vanishes to precision; "
                    "the W-ratio is undefined")
            wcoeff = ratio * (classical_L_at_nonpositive(chi.inverse(), 0, wprec)
                              / lp_inv)
        om_part = DirichletCharacter.teichmuller_power(p, 1 - k)
        # a precision as soon as either character is p-adic
        extra = eisenstein_two_char(k, chi, om_part, n_q, pr(chi) or pr(om_part))
        F = main - eisenstein(1, chi, (), n_q, pr(chi)) * G * ratio + extra * wcoeff
    c0 = F.coeff(0)
    if not is_zero(c0):
        raise ConsistencyError(f"constant term failed to cancel: {c0}")
    return F
