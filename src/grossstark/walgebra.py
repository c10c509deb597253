"""Exact models of the nilpotent Artin algebras W_1, W_2, W_3.

Each algebra is a finite-dimensional commutative E-algebra presented by a
fixed monomial basis and a dense multiplication table.  In every case
eps_i^2 = eps_i pi = eps_i y = 0 and y(pi - y) = 0 (pi*y -> y^2); past that
the defining ideals are monomial apart from the binomial relations, which
are oriented into rewriting rules:

    case 1:  pi^{r_an+1} = 0, no y,
             eps_1...eps_r -> (-1)^{r_an+1} L pi^{r_an}
    case 2:  y^{r_an+1} = 0, pi^{r_an} -> y^{r_an} (W+1)/W,
             eps_1...eps_r -> (-1)^{r_an+1} L W^{-1} y^{r_an}
    case 3:  pi^{s+1} = 0, y^{t+1} = 0, y^t -> c pi^s
             (the W-datum is c pi^{s-t}, stored by its unit coefficient c),
             eps_1...eps_r -> (-1)^{s+1} L pi^s

Each case stores these rules, scalars included, and its top pi- and y-powers
once at construction, and one reduction serves all three.  The basis is the
powers up to the tops that no rule rewrites, then the proper eps-products.

Every product of two basis monomials reduces to scalar * basis monomial, so
the table is dense and exact.  Scalars are Fractions or PadicNumbers.  In
formal mode L and W are Laurent polynomials over Q in the symbols L and W,
and they enter only through the rewrite rules' scalars: every other table
scalar is the algebra's unit Fraction(1), so a coordinate stays a Fraction
until a product meets a rule.  The determinant identities are then verified
as polynomial identities in L and W.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ConstructionError, DomainError
from .lambdaring import LambdaElement
from .padic import Immutable, PadicNumber, is_zero


def _signed_sum(mine, theirs, sign):
    """The sparse sum mine + theirs for sign 1, mine - theirs for sign -1."""
    out = dict(mine)
    for k, v in theirs.items():
        if k in out:
            out[k] = out[k] + v if sign > 0 else out[k] - v
        else:
            out[k] = v if sign > 0 else -v
    return out


class Laurent(Immutable):
    """Laurent polynomial over Q in the formal symbols L and W."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for key, val in (terms or {}).items():
            v = val if isinstance(val, Fraction) else Fraction(val)
            if v:
                cleaned[key] = v
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var_L(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_W(cls):
        return cls({(0, 1): Fraction(1)})

    @staticmethod
    def _terms(x):
        """The terms of a Laurent, or of an int or Fraction as a constant; else None."""
        if isinstance(x, Laurent):
            return x.terms
        if isinstance(x, (int, Fraction)):
            return {(0, 0): x} if x else {}
        return None

    def _combine(self, other, sign):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        return Laurent(_signed_sum(self.terms, terms, sign))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        out = {}
        for (a, b), v in self.terms.items():
            for (c, d), w in terms.items():
                k = (a + c, b + d)
                x = v * w
                out[k] = out[k] + x if k in out else x
        return Laurent(out)

    __rmul__ = __mul__

    def inverse(self):
        """Defined for monomials only (all the algebra construction needs)."""
        if len(self.terms) != 1:
            raise DomainError("can only invert Laurent monomials")
        (a, b), v = next(iter(self.terms.items()))
        return Laurent({(-a, -b): 1 / v})

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        return self.terms == terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), v in sorted(self.terms.items()):
            mono = "".join(s for s, e in (("L", a), ("W", b)) for s in
                           ([f"{s}^{e}"] if e not in (0, 1) else [s] * (e == 1)))
            bits.append(f"{v}" + ("*" + mono if mono else ""))
        return " + ".join(bits)


# monomials: ("pi", a) with a >= 0 (("pi", 0) is 1), ("y", b) with b >= 1,
# ("eps", frozenset J) with J a nonempty proper-or-full subset of {1..r}


def _degree(mono) -> int:
    kind, v = mono
    return len(v) if kind == "eps" else v


def _scale(coords, sc, unit):
    """The coordinates coords times the scalar sc; a unit coordinate becomes sc."""
    return {i: sc if c is unit else c * sc for i, c in coords.items()}


def _scaled(sc, entry, unit):
    """sc times a table entry, None standing for zero; a unit sc is skipped."""
    if entry is None:
        return None
    prod = entry[0] if sc is unit else sc * entry[0]
    return None if is_zero(prod) else (prod, entry[1])


class WAlgebra:
    """One of the three local algebras, with basis and multiplication table."""

    def __init__(self, case, r, r_an=None, s=None, t=None, L=0, W=None):
        self.case = case
        self.r = r
        self.s, self.t = s, t  # None in cases 1 and 2, as checked below
        self.W = W
        self.formal = isinstance(L, Laurent)
        # the scalar of every table entry no rule rewrites, formal mode
        # included; products skip multiplying by this object
        self._unit = one = Fraction(1)
        full = ("eps", frozenset(range(1, r + 1)))
        # one block per case: its checks, its top pi- and y-powers and its
        # rewrite rules monomial -> (scalar, target), as in the module docstring
        if case in (1, 2):
            if s is not None or t is not None:
                raise ConstructionError("cases 1 and 2 take no s or t")
            if r_an is None or r < 1 or r_an < r:
                raise ConstructionError("need r_an >= r >= 1")
            self.max_degree = r_an
            sign = (-1) ** (r_an + 1)
            if case == 1:
                if W is not None:
                    raise ConstructionError("case 1 carries no W-datum")
                tops = (r_an, 0)
                rules = {full: (L * one * sign, ("pi", r_an))}
            else:
                self._check_W()
                w_inv = one / W
                tops = (r_an, r_an)
                rules = {full: (L * w_inv * sign, ("y", r_an)),
                         ("pi", r_an): ((W + 1) * w_inv, ("y", r_an))}
        elif case == 3:
            if r_an is not None:
                raise ConstructionError("case 3 takes no r_an")
            if s is None or t is None or r < 1 or not s > t >= 1:
                raise ConstructionError(
                    "case 3 needs s > t >= 1 (t = 0 degenerates the W-relation)")
            self.max_degree = s
            self._check_W()
            tops = (s, t)
            rules = {full: (L * one * (-1) ** (s + 1), ("pi", s)),
                     ("y", t): (W * one, ("pi", s))}
        else:
            raise ConstructionError(f"unknown case {case}")
        if is_zero(rules[full][0]):
            del rules[full]  # L = 0: the full eps-product is zero
        self._rules = rules
        pi_top, y_top = tops
        powers = ([("pi", a) for a in range(pi_top + 1)]
                  + [("y", b) for b in range(1, y_top + 1)])
        self.basis = [m for m in powers if m not in rules] + [
            ("eps", frozenset(J)) for size in range(1, r)
            for J in itertools.combinations(range(1, r + 1), size)]
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.table = self._make_table()
        self._check_structure()
        # pi^a y^b eps_J by (a, b, J), each built on first use; elements are
        # immutable, so every caller may share them
        self._generators = {}

    # -- construction ---------------------------------------------------

    def _check_W(self):
        if self.W is None or is_zero(self.W):
            raise ConstructionError("cases 2 and 3 need a nonzero W scalar")
        if isinstance(self.W, Laurent) != self.formal:
            raise ConstructionError("L and W must both be formal or both concrete")

    def _reduce(self, a, b, J):
        """Reduce pi^a y^b eps_J to (scalar, basis monomial) or None for zero."""
        if a < 0 or b < 0:
            raise DomainError("pi and y have no negative powers")
        if J:
            if a or b:
                return None
            mono = ("eps", J)
        elif b:
            if self.case == 1:
                raise DomainError("case 1 has no y")
            mono = ("y", a + b)  # pi*y -> y^2
        else:
            mono = ("pi", a)
        rule = self._rules.get(mono)
        if rule is not None:
            return rule
        return (self._unit, mono) if mono in self.index else None

    def _mul_monomials(self, m1, m2):
        a = b = 0
        J = frozenset()
        for kind, val in (m1, m2):
            if kind == "pi":
                a += val
            elif kind == "y":
                b += val
            else:
                if J & val:
                    return None  # eps_i^2 = 0
                J = J | val
        return self._reduce(a, b, J)

    def _make_table(self):
        n = len(self.basis)
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = self._mul_monomials(self.basis[i], self.basis[j])
                if entry is not None:
                    sc, mono = entry
                    entry = (sc, self.index[mono])
                table[i][j] = entry
                table[j][i] = entry
        return table

    def _check_structure(self):
        """Unit and associativity on basis monomials, read off the table.

        A product e_i e_j is the entry table[i][j]: None for zero, or
        (scalar, k) for scalar * e_k.
        """
        table, one = self.table, self._unit
        unit = self.index[("pi", 0)]
        for i, row in enumerate(table):
            entry = row[unit]  # e_i * 1
            if entry is None or entry[1] != i or not is_zero(entry[0] - 1):
                raise ConstructionError("unit failure")
        n = len(table)
        for i in range(n):
            row_i = table[i]
            for j in range(n):
                row_j = table[j]
                ij = row_i[j]
                for k in range(n):
                    # (e_i e_j) e_k and e_i (e_j e_k), each None or (sc, index)
                    jk = row_j[k]
                    left = (None if ij is None
                            else _scaled(ij[0], table[ij[1]][k], one))
                    right = (None if jk is None
                             else _scaled(jk[0], row_i[jk[1]], one))
                    if left is None and right is None:
                        continue
                    if (left is None or right is None or left[1] != right[1]
                            or not is_zero(left[0] - right[0])):
                        raise ConstructionError("associativity failure")

    # -- element constructors --------------------------------------------

    @property
    def dimension(self):
        return len(self.basis)

    def element(self, data):
        return WElement(self, {self.index[mono]: sc
                               for mono, sc in data.items()})

    def zero(self):
        return WElement(self, {})

    def one(self):
        return self.element({("pi", 0): self._unit})

    def _generator(self, a, b, J):
        """The reduced element pi^a y^b eps_J, built once per algebra."""
        key = (a, b, J)
        x = self._generators.get(key)
        if x is None:
            entry = self._reduce(a, b, J)  # (scalar, basis monomial) or None
            x = self._generators[key] = (
                self.zero() if entry is None else self.element({entry[1]: entry[0]}))
        return x

    def pi(self, power=1):
        return self._generator(power, 0, frozenset())

    def y(self, power=1):
        return self._generator(0, power, frozenset())

    def eps(self, *indices):
        J = frozenset(indices)
        if not J or not J <= set(range(1, self.r + 1)):
            raise DomainError("eps indices must be a nonempty subset of 1..r")
        return self._generator(0, 0, J)

    def eps_product(self):
        """eps_1 * ... * eps_r, already reduced."""
        return self.eps(*range(1, self.r + 1))

    def from_scalar(self, sc):
        return self.element({("pi", 0): sc})

    def from_lambda(self, h: LambdaElement, base: "WElement"):
        """Image of a truncated power series under T -> base.

        base lies in the maximal ideal (the cyclotomic characters use pi, y
        and pi - y), so only coefficients up to the nilpotency degree matter.
        """
        if self.formal:
            raise DomainError("Lambda images need concrete scalars")
        out = self.zero()
        power = self.one()
        for i in range(min(h.M, self.max_degree) + 1):
            c = h.coeff(i)
            if not is_zero(c):
                out = out + power * c
            if i < self.max_degree:
                power = power * base
        return out

    def truncate_degree(self, x: "WElement", d: int) -> "WElement":
        """Drop basis monomials of degree > d (reduction mod m_W^{d+1})."""
        return WElement(self, {i: c for i, c in x.coords.items()
                               if _degree(self.basis[i]) <= d})


_SCALARS = (int, Fraction, PadicNumber, Laurent)


class WElement(Immutable):
    """Element of a WAlgebra in coordinates over the monomial basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        object.__setattr__(self, "algebra", algebra)
        # only exact zeros go: an O(p^k) coordinate keeps its precision
        object.__setattr__(self, "coords", {
            i: c for i, c in coords.items()
            if (not c.exact_zero if isinstance(c, PadicNumber) else c)})

    def nonzero(self) -> bool:
        """True when some coordinate is nonzero to its precision."""
        return not all(map(is_zero, self.coords.values()))

    def _combine(self, other, sign):
        """self + other for sign 1, self - other for sign -1."""
        if isinstance(other, _SCALARS):
            other = self.algebra.from_scalar(other)
        if not isinstance(other, WElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise DomainError("elements of different algebras")
        return WElement(self.algebra, _signed_sum(self.coords, other.coords, sign))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return WElement(self.algebra, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return WElement(self.algebra,
                            _scale(self.coords, other, self.algebra._unit))
        if not isinstance(other, WElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise DomainError("elements of different algebras")
        table, unit = self.algebra.table, self.algebra._unit
        out = {}
        for i, a in self.coords.items():
            row = table[i]
            for j, b in other.coords.items():
                entry = row[j]
                if entry is None:
                    continue
                sc, k = entry
                prod = a * b if sc is unit else a * b * sc
                out[k] = out[k] + prod if k in out else prod
        return WElement(self.algebra, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        diff = self._combine(other, -1)
        if diff is NotImplemented:
            return NotImplemented
        return not diff.nonzero()

    def __repr__(self):
        if not self.coords:
            return "0"
        names = []
        for i, c in sorted(self.coords.items()):
            kind, v = self.algebra.basis[i]
            if kind == "eps":
                mono = "*".join(f"eps{j}" for j in sorted(v))
            elif v == 0:
                mono = "1"
            else:
                mono = f"{kind}^{v}" if v > 1 else kind
            names.append(f"({c})*{mono}")
        return " + ".join(names)


def build_W(case, r, r_an=None, s=None, t=None, L=0, W=None) -> WAlgebra:
    """Construct one of the three algebras; see the module docstring."""
    return WAlgebra(case, r, r_an=r_an, s=s, t=t, L=L, W=W)


def det(matrix):
    """Determinant of a square matrix over a commutative ring.

    First-row expansion over shared minors: going up from the last row, the
    minor of the last k rows on each k-subset of the columns is the
    alternating sum, over that subset, of the top row's entry times the
    minor below on the other columns.  Each minor is made once, so an r x r
    determinant takes the sum of k C(r, k) over 2 <= k <= r ring products,
    9 instead of Leibniz's 12 at r = 3.  Entries need only +, - and *, so
    ints, Fractions, PadicNumbers, Laurent polynomials and WElements all
    qualify.  Each sum starts from its first term: no multiplicative or
    additive identity is needed, and a p-adic term carries exactly the
    precision of its factors.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square")
    if n == 0:
        raise DomainError("empty matrix")
    minors = {(j,): x for j, x in enumerate(matrix[-1])}
    for i in range(n - 2, -1, -1):
        row = matrix[i]
        above = {}
        for cols in itertools.combinations(range(n), n - i):
            total = row[cols[0]] * minors[cols[1:]]
            for k in range(1, len(cols)):
                term = row[cols[k]] * minors[cols[:k] + cols[k + 1:]]
                total = total - term if k % 2 else total + term
            above[cols] = total
        minors = above
    return minors[tuple(range(n))]


# -- cyclotomic-character images -----------------------------------------


def epsilon_y(h: LambdaElement, alg: WAlgebra) -> WElement:
    """Image of a Lambda-adic character value under T -> y (cases 2 and 3).

    For h = epsilon_char(x) this is 1 + [(h - 1)/pi] y: the division by pi
    shifts the series one step, and multiplying by y turns pi-powers into
    y-powers through pi*y = y^2, which is exactly the T -> y substitution.
    """
    return alg.from_lambda(h, alg.y())


def epsilon_pi_minus_y(h: LambdaElement, alg: WAlgebra) -> WElement:
    """Image under T -> pi - y (cases 2 and 3; alg.y() raises in case 1)."""
    return alg.from_lambda(h, alg.pi() - alg.y())


def hecke_t_image(h: LambdaElement, chi_l, alg: WAlgebra) -> WElement:
    """Image of T_l: 1 + chi(l) eps(l) + (chi(l) - 1) [(1 - eps(l))/pi] y."""
    # the y-part first: in case 1 alg.y() raises before any work
    ypart = alg.from_lambda(h, alg.y()) - alg.one()  # (eps - 1)/pi * y
    full = alg.from_lambda(h, alg.pi())
    return alg.one() + full * chi_l + ypart * (1 - chi_l)


def u_p_image(alg: WAlgebra, i: int) -> WElement:
    """Image of U_{p_i}: 1 + eps_i."""
    return alg.one() + alg.eps(i)


# -- determinant identities ----------------------------------------------


def case1_det_identity(o_matrix, l_matrix, alg: WAlgebra, n_matrix=None, *,
                       dets=None) -> WElement:
    """Residue of det(l_ij pi + o_ij eps_i + n_ij) - det(l) pi^r - det(o) eps_1..eps_r.

    Reduced modulo m_W^{r+1}; the contract is a zero residue.  Row index i
    carries eps_i; n_ij, when given, must lie in m_W^2.  dets, when given,
    is the pair (det(l), det(o)) and is trusted as handed in.
    """
    if alg.case != 1:
        raise DomainError("case 1 identity")
    return alg.truncate_degree(_det_identity(
        o_matrix, l_matrix, alg, alg.pi(), alg.pi(alg.r), n_matrix, dets), alg.r)


def case2_det_identity(o_matrix, l_matrix, alg: WAlgebra, n_matrix=None, *,
                       dets=None) -> WElement:
    """Residue of the (pi - y) determinant identity in case 2.

    det(l_ij (pi-y) + o_ij eps_i + n_ij) - det(l)(pi^r - y^r) - det(o) eps_1..eps_r,
    reduced mod m_W^{r+1}; uses (pi - y)^r = pi^r - y^r.  dets, when given,
    is the pair (det(l), det(o)) and is trusted as handed in.
    """
    if alg.case != 2:
        raise DomainError("case 2 identity")
    lead = alg.pi(alg.r) - alg.y(alg.r)
    return alg.truncate_degree(_det_identity(
        o_matrix, l_matrix, alg, alg.pi() - alg.y(), lead, n_matrix, dets), alg.r)


def case3_det_identity(o_matrix, l_matrix, alg: WAlgebra, n_matrix=None, *,
                       dets=None) -> WElement:
    """Residue of the y-side determinant identity in case 3 (t = r exact).

    det(l_ij y + o_ij eps_i + n_ij) - det(l) y^r - det(o) eps_1..eps_r.
    For t = r the correction module m_W*(y, eps)^r vanishes and the residue
    must be exactly zero; n_ij, when given, must lie in m_W*(y, eps).  The
    residue is not truncated: y^r and eps_1..eps_r both rewrite onto pi^s,
    of degree s > r, which a reduction mod m_W^{r+1} would drop.
    dets, when given, is the pair (det(l), det(o)) and is trusted as handed
    in.
    """
    if alg.case != 3:
        raise DomainError("case 3 identity")
    return _det_identity(o_matrix, l_matrix, alg, alg.y(), alg.y(alg.r),
                         n_matrix, dets)


def _sum_of_scaled(x, a, y, b):
    """x * a + y * b for elements x, y and scalars a, b, built as one element."""
    unit = x.algebra._unit
    mine, theirs = _scale(x.coords, a, unit), _scale(y.coords, b, unit)
    return WElement(x.algebra, _signed_sum(mine, theirs, 1))


def _det_identity(o_matrix, l_matrix, alg, gen, lead_gen, n_matrix, dets):
    """det(rows) - lead_gen det(l) - eps_1..eps_r det(o), not truncated.

    The pair (det(l), det(o)) is computed here when dets is None; a caller
    that checks several identities on one (o, l) computes it once.
    """
    r = alg.r
    if len(o_matrix) != r or len(l_matrix) != r:
        raise DomainError(f"need {r} x {r} matrices")
    rows = []
    for i in range(r):
        eps_i = alg.eps(i + 1)
        row = [_sum_of_scaled(gen, l_ij, eps_i, o_ij)
               for l_ij, o_ij in zip(l_matrix[i], o_matrix[i])]
        if n_matrix is not None:
            row = [e + n for e, n in zip(row, n_matrix[i])]
        rows.append(row)
    D = det(rows)
    detl, deto = (det(l_matrix), det(o_matrix)) if dets is None else dets
    return D - _sum_of_scaled(lead_gen, detl, alg.eps_product(), deto)
