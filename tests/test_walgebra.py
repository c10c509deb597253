"""Nilpotent Artin algebras: structure, rewriting, determinant identities."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from grossstark.errors import ConstructionError, DomainError
from grossstark.lambdaring import epsilon_char, topological_generator
from grossstark.padic import PadicNumber, plog
from grossstark.walgebra import (Laurent, _sum_of_scaled, build_W,
                                 case1_det_identity, case2_det_identity,
                                 case3_det_identity, det, epsilon_pi_minus_y,
                                 epsilon_y, hecke_t_image, u_p_image)

L0 = Fraction(5, 3)
W0 = Fraction(2, 7)


def coefficient(x, mono):
    """The coordinate of the WElement x on the basis monomial mono."""
    (i,) = x.algebra.element({mono: 1}).coords
    return x.coords.get(i, 0)


# -- construction -----------------------------------------------------------

def test_construction_guards():
    with pytest.raises(ConstructionError):
        build_W(1, 2, r_an=1, L=L0)              # r_an < r
    with pytest.raises(ConstructionError):
        build_W(1, 1, r_an=1, L=L0, W=W0)        # case 1 has no W
    with pytest.raises(ConstructionError):
        build_W(2, 1, r_an=1, L=L0)              # case 2 needs W
    with pytest.raises(ConstructionError):
        build_W(2, 1, r_an=1, L=L0, W=0)         # W must be nonzero
    with pytest.raises(ConstructionError):
        build_W(3, 1, s=2, t=0, L=L0, W=W0)      # t = 0 degenerates
    with pytest.raises(ConstructionError):
        build_W(3, 1, s=2, t=2, L=L0, W=W0)      # need s > t
    with pytest.raises(ConstructionError):
        build_W(4, 1, r_an=1, L=L0)
    with pytest.raises(ConstructionError):
        build_W(2, 1, r_an=1, L=Laurent.var_L(), W=W0)  # mixed scalar modes


@pytest.mark.parametrize("case, r, extra, message", [
    (1, 1, dict(r_an=1, s=7, t=3), "cases 1 and 2 take no s or t"),
    (1, 2, dict(r_an=2, s=3), "cases 1 and 2 take no s or t"),
    (2, 1, dict(r_an=1, t=1, W=W0), "cases 1 and 2 take no s or t"),
    (3, 1, dict(r_an=9, s=2, t=1, W=W0), "case 3 takes no r_an"),
], ids=["case-1-s-t", "case-1-s", "case-2-t", "case-3-r-an"])
def test_construction_rejects_the_other_cases_parameters(case, r, extra,
                                                         message):
    with pytest.raises(ConstructionError, match=message):
        build_W(case, r, L=L0, **extra)


def test_dimensions():
    for r in (1, 2, 3):
        a1 = build_W(1, r, r_an=r, L=L0)
        assert a1.dimension == 2 ** r + r - 1
        a2 = build_W(2, r, r_an=r, L=L0, W=W0)
        assert a2.dimension == 2 ** r + 2 * r - 2
    a3 = build_W(3, 2, s=3, t=2, L=L0, W=W0)
    assert a3.dimension == (3 + 1) + (2 - 1) + 2 ** 2 - 2


# -- structure check on the multiplication table ----------------------------

def element_check(alg):
    """Unit and associativity on WElements: the reference for the table check."""
    one = alg.one()
    for m in alg.basis:
        e = alg.element({m: 1})
        if (e * one - e).nonzero():
            return "unit failure"
    els = [alg.element({m: 1}) for m in alg.basis]
    for x in els:
        for y in els:
            xy = x * y
            for z in els:
                if ((xy * z) - (x * (y * z))).nonzero():
                    return "associativity failure"
    return None


def table_check(alg):
    try:
        alg._check_structure()
    except ConstructionError as exc:
        return str(exc)
    return None


def test_redirected_entry_fails_associativity():
    alg = build_W(2, 2, r_an=2, L=L0, W=W0)
    pi = alg.index[("pi", 1)]
    sc, _ = alg.table[pi][pi]
    alg.table[pi][pi] = (sc, pi)  # pi * pi -> sc * pi instead of sc * y^2
    with pytest.raises(ConstructionError, match="associativity failure"):
        alg._check_structure()


def test_index_mismatch_fails_associativity():
    # on a = pi, b = pi^2: aa = b, ab = a, ba = b, bb = a; every product of
    # a and b is nonzero with scalar 1, and (aa)a = b while a(aa) = a
    alg = build_W(1, 1, r_an=2, L=L0)
    a, b = alg.index[("pi", 1)], alg.index[("pi", 2)]
    one = Fraction(1)
    alg.table[a][a], alg.table[a][b] = (one, b), (one, a)
    alg.table[b][a], alg.table[b][b] = (one, b), (one, a)
    assert element_check(alg) == "associativity failure"
    with pytest.raises(ConstructionError, match="associativity failure"):
        alg._check_structure()


@pytest.mark.parametrize("entry", [(Fraction(1), 0),    # pi * 1 -> 1
                                   (Fraction(2), 1),    # pi * 1 -> 2 pi
                                   None])               # pi * 1 -> 0
def test_unit_row_corruption_fails_unit(entry):
    alg = build_W(1, 2, r_an=2, L=L0)
    unit, pi = alg.index[("pi", 0)], alg.index[("pi", 1)]
    assert (unit, pi) == (0, 1)
    alg.table[pi][unit] = alg.table[unit][pi] = entry
    assert element_check(alg) == "unit failure"
    with pytest.raises(ConstructionError, match="unit failure"):
        alg._check_structure()


@pytest.mark.parametrize("case", [1, 2, 3])
def test_table_check_agrees_with_element_check(case):
    # every None (or zero-scalar) or index-redirect corruption of one
    # upper-triangle entry; a rescaled entry is a change of basis, still
    # associative, so none is used
    alg = {1: lambda: build_W(1, 2, r_an=2, L=L0),
           2: lambda: build_W(2, 2, r_an=2, L=L0, W=W0),
           3: lambda: build_W(3, 2, s=3, t=2, L=L0, W=W0)}[case]()
    assert table_check(alg) is None and element_check(alg) is None
    n = alg.dimension
    outcomes = set()
    for i in range(n):
        for j in range(i, n):
            old = alg.table[i][j]
            sc = Fraction(1) if old is None else old[0]
            corruptions = [None, (sc * 0, 0)] + [
                (sc, k) for k in range(n) if old is None or k != old[1]]
            for new in corruptions:
                if new == old:
                    continue
                alg.table[i][j] = new
                got = table_check(alg)
                assert got == element_check(alg), (case, i, j, new)
                outcomes.add(got)
            alg.table[i][j] = old
    assert {"associativity failure", "unit failure"} <= outcomes


# -- rewriting --------------------------------------------------------------

def test_nilpotency():
    for alg in (build_W(1, 2, r_an=2, L=L0),
                build_W(2, 2, r_an=2, L=L0, W=W0),
                build_W(3, 2, s=3, t=2, L=L0, W=W0)):
        d = alg.max_degree
        assert not alg.pi(d + 1).nonzero()
        assert alg.pi(d).nonzero() or alg.case == 2  # case 2 rewrites pi^r_an
        e1 = alg.eps(1)
        assert not (e1 * e1).nonzero()
        assert not (e1 * alg.pi()).nonzero()
        if alg.case != 1:
            assert not (e1 * alg.y()).nonzero()


def test_case1_eps_product_rewrite():
    for r in (1, 2, 3):
        alg = build_W(1, r, r_an=r, L=L0)
        want = alg.pi(r) * (L0 * Fraction((-1) ** (r + 1)))
        assert alg.eps_product() == want
        # building it by explicit multiplication agrees with the table entry
        prod = alg.one()
        for i in range(1, r + 1):
            prod = prod * alg.eps(i)
        assert prod == want


def test_case2_rewrites():
    alg = build_W(2, 2, r_an=2, L=L0, W=W0)
    pi, y = alg.pi(), alg.y()
    assert pi * y == y * y
    assert not ((pi - y) * y).nonzero()
    # pi^{r_an} folds onto y^{r_an} with the (W+1)/W unit
    assert alg.pi(2) == alg.y(2) * ((W0 + 1) / W0)
    # (pi - y)^r = pi^r - y^r
    assert (pi - y) * (pi - y) == alg.pi(2) - alg.y(2)
    assert alg.eps_product() == alg.y(2) * (-L0 / W0)


def test_case3_rewrite_chain():
    # s = 2, t = 1: y is the element W pi^2 and the chain terminates at 0
    alg = build_W(3, 1, s=2, t=1, L=L0, W=W0)
    assert alg.y() == alg.pi(2) * W0
    assert not (alg.y() * alg.y()).nonzero()
    assert not (alg.pi() * alg.y()).nonzero()
    # s = 3, t = 2: one live y-power before the fold
    alg2 = build_W(3, 2, s=3, t=2, L=L0, W=W0)
    assert alg2.y(2) == alg2.pi(3) * W0
    assert alg2.pi() * alg2.y() == alg2.y(2)
    assert not alg2.y(3).nonzero()
    assert alg2.eps_product() == alg2.pi(3) * L0  # (-1)^{s+1} = +1 at s = 3


def test_vanishing_L_kills_eps_product_only():
    alg = build_W(1, 2, r_an=2, L=0)
    assert not alg.eps_product().nonzero()
    assert alg.dimension == 2 ** 2 + 2 - 1
    assert alg.eps(1).nonzero()


def test_case2_at_W_minus_1_keeps_the_zero_rewrite():
    # (W+1)/W = 0 at W = -1: pi^{r_an} still rewrites, to 0 * y^{r_an}, as
    # a stored table entry rather than a missing one
    alg = build_W(2, 2, r_an=2, L=L0, W=Fraction(-1))
    pi = alg.index[("pi", 1)]
    assert alg.table[pi][pi] == (0, alg.index[("y", 2)])
    assert not alg.pi(2).nonzero()
    assert ("pi", 2) not in alg.index


def test_zeroth_and_negative_powers():
    for alg in (build_W(1, 2, r_an=2, L=L0),
                build_W(2, 2, r_an=2, L=L0, W=W0),
                build_W(3, 2, s=3, t=2, L=L0, W=W0)):
        assert alg.pi(0) == alg.one()
        assert alg.y(0) == alg.one()  # also in case 1, which has no y
        with pytest.raises(DomainError):
            alg.pi(-1)
        with pytest.raises(DomainError):
            alg.y(-1)


def test_case1_has_no_y():
    # the one guard is WAlgebra._reduce's; every y-carrying image reaches it
    alg = build_W(1, 1, r_an=1, L=L0)
    with pytest.raises(DomainError, match="case 1 has no y"):
        alg.y()
    with pytest.raises(DomainError, match="case 1 has no y"):
        epsilon_y(None, alg)
    with pytest.raises(DomainError, match="case 1 has no y"):
        epsilon_pi_minus_y(None, alg)
    with pytest.raises(DomainError, match="case 1 has no y"):
        hecke_t_image(None, 1, alg)


def test_element_api():
    alg = build_W(2, 2, r_an=2, L=L0, W=W0)
    x = alg.element({("pi", 1): Fraction(3), ("y", 2): Fraction(1, 2)})
    assert coefficient(x, ("pi", 1)) == 3
    assert coefficient(x, ("y", 2)) == Fraction(1, 2)
    assert coefficient(x, ("pi", 0)) == 0
    assert (x - x) == alg.zero()
    assert x + 1 == alg.element({("pi", 1): 3, ("y", 2): Fraction(1, 2),
                                 ("pi", 0): 1})
    assert 1 - x == alg.one() + x * -1
    assert alg.one() == 1
    assert x * 2 == alg.element({("pi", 1): 6, ("y", 2): 1})
    with pytest.raises(DomainError):
        alg.eps()
    with pytest.raises(DomainError):
        alg.eps(5)
    other = build_W(2, 2, r_an=2, L=L0, W=W0)
    with pytest.raises(DomainError):
        x + other.one()
    # an operand that is neither a scalar nor a WElement is not supported
    assert x != "pi"
    with pytest.raises(TypeError):
        x - "pi"


def test_truncate_degree():
    alg = build_W(1, 1, r_an=3, L=L0)
    x = alg.pi(1) + alg.pi(2) + alg.pi(3)
    cut = alg.truncate_degree(x, 2)
    assert cut == alg.pi(1) + alg.pi(2)


# -- formal Laurent scalars --------------------------------------------------

def test_laurent_arithmetic():
    L, W = Laurent.var_L(), Laurent.var_W()
    assert (L + W) * (L - W) == L * L - W * W
    assert (W * 3).inverse() * 3 * W == Laurent.const(1)
    inv = (L * W * W).inverse()
    assert inv * L * W * W == Laurent.const(1)
    with pytest.raises(DomainError):
        (L + W).inverse()
    with pytest.raises(DomainError):
        Laurent.const(0).inverse()
    assert not Laurent.const(0)
    assert (L - L) == Laurent.const(0)
    # int and Fraction operands act as constants, on either side
    half = Fraction(1, 2)
    assert (L + 3).terms == {(1, 0): 1, (0, 0): 3}
    assert (L - half).terms == {(1, 0): 1, (0, 0): -half}
    assert (3 - L).terms == {(1, 0): -1, (0, 0): 3}
    assert (half * W * 4).terms == {(0, 1): 2}
    assert (L + 3) - 3 == L and L * 1 == L and 2 + L - 2 == L
    assert L * 0 == 0 and (L - L) == 0 and L - L == Fraction(0)
    assert (L + 1) * 2 == 2 * L + 2 and Laurent.const(5) == 5
    assert L != 0 and Laurent.const(5) != 4


def test_formal_coordinates_are_fractions_until_a_rule():
    # L and W enter only through the rewrite rules' scalars
    L, W = Laurent.var_L(), Laurent.var_W()
    algs = {1: build_W(1, 2, r_an=2, L=L), 2: build_W(2, 2, r_an=2, L=L, W=W),
            3: build_W(3, 2, s=3, t=2, L=L, W=W)}
    for case, alg in algs.items():
        # case 2 folds pi^2 onto y^2 and case 3 folds y^2 onto pi^3, so
        # each builds its square from the generator no rule rewrites
        gen = alg.y() if case == 2 else alg.pi()
        half = Fraction(1, 2)
        x = (alg.one() + gen * 3 + alg.eps(1)) * (alg.one() - gen * half)
        assert x == (alg.one() + gen * 5 * half - gen * gen * 3 * half
                     + alg.eps(1))
        assert all(type(c) is Fraction for c in x.coords.values()), case
        (c,) = alg.eps_product().coords.values()
        assert isinstance(c, Laurent) and any(a for a, _ in c.terms)  # L
    a2 = algs[2]
    for rule_product in (a2.pi() * a2.pi(), a2.eps(1) * a2.eps(2)):
        (c,) = rule_product.coords.values()
        assert isinstance(c, Laurent) and any(b for _, b in c.terms)  # W
    a3 = algs[3]
    assert (a3.y() * a3.y()).coords == {a3.index[("pi", 3)]: W}
    for alg in algs.values():
        two = alg.from_scalar(Laurent.const(2))
        assert two == alg.from_scalar(Fraction(2)) == 2 and two != 3


def test_formal_algebra_eps_product():
    L, W = Laurent.var_L(), Laurent.var_W()
    alg = build_W(2, 2, r_an=2, L=L, W=W)
    got = alg.eps_product()
    want = alg.y(2) * (L * W.inverse() * (-1))
    assert got == want


# -- cyclotomic character images ---------------------------------------------

def test_epsilon_y_of_generator():
    # epsilon(u) = 1 + T, so the y-image is exactly 1 + y
    p = 5
    alg = build_W(2, 1, r_an=2, L=L0, W=W0)
    h = epsilon_char(topological_generator(p), p)
    img = epsilon_y(h, alg)
    diff = img - (alg.one() + alg.y())
    assert not diff.nonzero()


def test_epsilon_image_product_law():
    # the pi-image factors: eps = eps_y * eps_{pi-y}, via pi^i = y^i + (pi-y)^i
    p = 5
    alg = build_W(2, 2, r_an=2, L=L0, W=W0)
    for x in (2, 3, 7):
        h = epsilon_char(x, p)
        full = alg.from_lambda(h, alg.pi())
        prod = epsilon_y(h, alg) * epsilon_pi_minus_y(h, alg)
        diff = full - prod
        assert not diff.nonzero(), x


def test_epsilon_images_multiplicative():
    p = 5
    alg = build_W(2, 1, r_an=2, L=L0, W=W0)
    ha, hb = epsilon_char(2, p), epsilon_char(3, p)
    hab = epsilon_char(6, p)
    got = epsilon_y(ha, alg) * epsilon_y(hb, alg)
    want = epsilon_y(hab, alg)
    assert not (got - want).nonzero()


def test_hecke_images():
    p = 5
    alg = build_W(2, 1, r_an=2, L=L0, W=W0)
    h = epsilon_char(3, p)
    # split prime: chi(l) = 1 collapses to 1 + pi-image
    t_split = hecke_t_image(h, 1, alg)
    assert not (t_split - (alg.one() + alg.from_lambda(h, alg.pi()))).nonzero()
    # inert prime: 1 - eps(l) + 2 (eps_y(l) - 1)
    t_inert = hecke_t_image(h, -1, alg)
    want = alg.one() - alg.from_lambda(h, alg.pi()) + (epsilon_y(h, alg) - alg.one()) * 2
    assert not (t_inert - want).nonzero()
    # U_{p_i} images
    assert u_p_image(alg, 1) == alg.one() + alg.eps(1)


# -- determinant identities ---------------------------------------------------

def rand_matrix(rng, r):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)]
            for _ in range(r)]


def test_det_identities_concrete():
    rng = random.Random(7)
    for r in (1, 2, 3):
        a1 = build_W(1, r, r_an=r, L=L0)
        a2 = build_W(2, r, r_an=r, L=L0, W=W0)
        a3 = build_W(3, r, s=r + 1, t=r, L=L0, W=W0)
        for _ in range(10):
            o, l = rand_matrix(rng, r), rand_matrix(rng, r)
            assert not case1_det_identity(o, l, a1).nonzero()
            assert not case2_det_identity(o, l, a2).nonzero()
            assert not case3_det_identity(o, l, a3).nonzero()


def test_det_identity_with_noise():
    rng = random.Random(11)
    r = 2
    a1 = build_W(1, r, r_an=r, L=L0)
    noise1 = [[a1.pi(2) * Fraction(rng.randint(-3, 3)) for _ in range(r)]
              for _ in range(r)]
    o, l = rand_matrix(rng, r), rand_matrix(rng, r)
    assert not case1_det_identity(o, l, a1, n_matrix=noise1).nonzero()
    a3 = build_W(3, r, s=r + 1, t=r, L=L0, W=W0)
    noise3 = [[(a3.y() * a3.y() + a3.y() * a3.eps(1)) * Fraction(rng.randint(-3, 3))
               for _ in range(r)] for _ in range(r)]
    assert not case3_det_identity(o, l, a3, n_matrix=noise3).nonzero()


def test_det_identities_formal():
    # with L, W symbolic the identity is a polynomial statement
    rng = random.Random(13)
    L, W = Laurent.var_L(), Laurent.var_W()
    for r in (1, 2):
        o, l = rand_matrix(rng, r), rand_matrix(rng, r)
        assert not case1_det_identity(o, l, build_W(1, r, r_an=r, L=L)).nonzero()
        assert not case2_det_identity(
            o, l, build_W(2, r, r_an=r, L=L, W=W)).nonzero()
        assert not case3_det_identity(
            o, l, build_W(3, r, s=r + 1, t=r, L=L, W=W)).nonzero()


P5, N5 = 5, 10


def padic(x):
    return PadicNumber.from_exact(P5, x, N5)


# scalar mode -> (L, W, the matrix entry for a Fraction x)
SCALAR_MODES = {
    "concrete": (L0, W0, lambda x: x),
    "formal": (Laurent.var_L(), Laurent.var_W(), lambda x: x),
    "padic": (padic(Fraction(5, 3)), padic(Fraction(2, 7)), padic),
}


def case_algebras(r, mode):
    """The three case algebras cmd_w_algebra checks at r, each with its
    row generator (pi, pi - y, y) and that generator's r-th power."""
    L, W, _ = SCALAR_MODES[mode]
    a1 = build_W(1, r, r_an=r, L=L)
    a2 = build_W(2, r, r_an=r, L=L, W=W)
    a3 = build_W(3, r, s=r + 1, t=r, L=L, W=W)
    return [(a1, a1.pi(), a1.pi(r)),
            (a2, a2.pi() - a2.y(), a2.pi(r) - a2.y(r)),
            (a3, a3.y(), a3.y(r))]


@pytest.mark.parametrize("mode", sorted(SCALAR_MODES))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_entry_built_as_one_element(r, mode):
    # gen * l + eps_i * o coordinate by coordinate, zero scalars included;
    # at r = 1 eps_1 rewrites onto gen's own basis monomial in cases 1 and 2
    rng = random.Random(31 + r)
    entry = SCALAR_MODES[mode][2]
    scalars = [Fraction(0), Fraction(1), Fraction(-3, 4),
               *rand_matrix(rng, 2)[0]]
    for alg, gen, lead in case_algebras(r, mode):
        if r == 1 and alg.case in (1, 2):
            assert set(gen.coords) & set(alg.eps(1).coords)
        for i in range(1, r + 1):
            eps_i = alg.eps(i)
            for a, b in itertools.product(scalars, repeat=2):
                l, o = entry(a), entry(b)
                got = _sum_of_scaled(gen, l, eps_i, o)
                assert got.coords == (gen * l + eps_i * o).coords
        # the right side: lead * det(l) + eps_1...eps_r * det(o)
        l, o = entry(Fraction(7, 2)), entry(Fraction(-5))
        want = lead * l + alg.eps_product() * o
        assert _sum_of_scaled(lead, l, alg.eps_product(), o).coords == \
            want.coords


IDENTITIES = {1: case1_det_identity, 2: case2_det_identity,
              3: case3_det_identity}


@pytest.mark.parametrize("mode", sorted(SCALAR_MODES))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_det_identity_with_a_handed_pair(r, mode):
    # the identities trust the pair they are handed: the right one gives the
    # residue computed without it, the swapped one a nonzero residue
    rng = random.Random(41 + r)
    entry = SCALAR_MODES[mode][2]
    o, l = rand_matrix(rng, r), rand_matrix(rng, r)
    assert det(o) != det(l)
    o, l = [[entry(x) for x in row] for row in o], \
        [[entry(x) for x in row] for row in l]
    for alg, _, _ in case_algebras(r, mode):
        fn = IDENTITIES[alg.case]
        plain = fn(o, l, alg)
        handed = fn(o, l, alg, dets=(det(l), det(o)))
        assert handed.coords == plain.coords
        assert not handed.nonzero()
        assert fn(o, l, alg, dets=(det(o), det(l))).nonzero()


def test_det_identity_case_mismatch():
    a1 = build_W(1, 1, r_an=1, L=L0)
    with pytest.raises(DomainError):
        case2_det_identity([[1]], [[1]], a1)
    with pytest.raises(DomainError):
        case3_det_identity([[1]], [[1]], a1)
    with pytest.raises(DomainError):
        case1_det_identity([[1], [1]], [[1]], a1)


def test_residue_recovery():
    # the pi^r coefficient of det(l pi + o eps) is det(l) + (-1)^{r+1} L det(o):
    # reading L off the vanishing locus gives (-1)^r det(l)/det(o)
    rng = random.Random(17)
    r = 2
    L = Laurent.var_L()
    alg = build_W(1, r, r_an=r, L=L)
    o, l = rand_matrix(rng, r), rand_matrix(rng, r)
    rows = [[alg.pi() * l[i][j] + alg.eps(i + 1) * o[i][j] for j in range(r)]
            for i in range(r)]
    D = det(rows)
    coeff = coefficient(D, ("pi", r))
    det_l = l[0][0] * l[1][1] - l[0][1] * l[1][0]
    det_o = o[0][0] * o[1][1] - o[0][1] * o[1][0]
    want = Laurent.const(det_l) + Laurent.var_L() * ((-1) ** (r + 1) * det_o)
    assert coeff == want


def test_det_over_every_scalar_ring():
    # 2(3 - 20) + (1 + 8) = -25, expanded along the first row by hand
    m = [[2, -1, 0], [1, 3, 4], [-2, 5, 1]]
    p, N = 5, 10
    assert det(m) == -25
    assert det([[Fraction(x) for x in row] for row in m]) == Fraction(-25)
    assert det([[Laurent.const(x) for x in row] for row in m]) == Laurent.const(-25)
    padic = [[PadicNumber.from_exact(p, x, N) for x in row] for row in m]
    assert det(padic) == PadicNumber.from_exact(p, -25, N)
    with pytest.raises(DomainError):
        det([])
    with pytest.raises(DomainError):
        det([[1, 2], [3]])


def leibniz(m):
    """The Leibniz sum, each term from its first-row entry, the identity first."""
    n = len(m)
    total = None
    for perm in itertools.permutations(range(n)):
        term = m[0][perm[0]]
        for i in range(1, n):
            term = term * m[i][perm[i]]
        odd = sum(perm[i] > perm[j]
                  for i in range(n) for j in range(i + 1, n)) % 2
        if total is None:
            total = term
        else:
            total = total - term if odd else total + term
    return total


def test_det_matches_leibniz():
    rng = random.Random(23)
    L, W = Laurent.var_L(), Laurent.var_W()
    alg = build_W(2, 2, r_an=3, L=L0, W=W0)
    entries = {
        "int": lambda: rng.randint(-9, 9),
        "Fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "Laurent": lambda: (L * rng.randint(-3, 3)
                            + W.inverse() * rng.randint(-3, 3)
                            + rng.randint(-3, 3)),
        "WElement": lambda: alg.element({m: Fraction(rng.randint(-3, 3))
                                         for m in rng.sample(alg.basis, 3)}),
    }
    for ring, entry in entries.items():
        for n in range(1, 5):
            for _ in range(3):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                assert det(m) == leibniz(m), (ring, n, m)


def test_padic_det_matches_leibniz_to_the_lower_precision():
    # the two orders of products may declare different digits; every digit
    # that both declare must agree
    rng = random.Random(29)
    for p in (3, 5):
        for n in range(1, 5):
            for _ in range(10):
                m = [[PadicNumber.from_exact(
                    p, Fraction(rng.randint(-40, 40), rng.randint(1, 40)),
                    rng.randint(4, 12)) for _ in range(n)] for _ in range(n)]
                a, b = det(m), leibniz(m)
                assert a.same_to(b, min(a.precision, b.precision)), (p, m)


def test_generators_are_built_once():
    alg = build_W(2, 2, r_an=2, L=L0, W=W0)
    assert alg.eps(1) is alg.eps(1) and alg.pi(2) is alg.pi(2)
    assert alg.y(2) is alg.y(2) and alg.eps_product() is alg.eps(1, 2)
    # the memo keeps the power and the indices apart
    assert alg.pi(1) != alg.pi(2) and alg.eps(1) != alg.eps(2)
    assert alg.y(1) != alg.pi(1)
    for bad in (0, alg.r + 1):
        with pytest.raises(DomainError):
            alg.eps(bad)
    with pytest.raises(DomainError):
        alg.pi(-1)


def test_scalar_times_a_unit_coordinate_is_the_scalar():
    alg = build_W(1, 1, r_an=2, L=L0)
    for s in (Fraction(3, 7), PadicNumber.from_exact(5, Fraction(3, 5), 10),
              Laurent.var_L() * 2 + 1):
        # PadicNumber equality compares the precision too
        c = coefficient(alg.pi() * s, ("pi", 1))
        assert c is s and c == Fraction(1) * s
        # a coordinate that is not the unit is still multiplied
        c3 = coefficient(alg.pi() * 3 * s, ("pi", 1))
        assert c3 == Fraction(3) * s


def test_formal_eps_pair_product():
    # at r_an = 2 the product of two single-eps elements lands on the L/W line
    L, W = Laurent.var_L(), Laurent.var_W()
    alg = build_W(2, 2, r_an=2, L=L, W=W)
    prod = alg.eps(1) * alg.eps(2)
    want = alg.y(2) * (L * W.inverse() * (-1))
    assert prod == want


def test_padic_scalar_mode():
    # PadicNumber scalars flow through the table unchanged
    p, N = 5, 10
    Lp = plog(PadicNumber.from_exact(p, 1 + p, N)) * 2
    Wp = PadicNumber.from_exact(p, 3, N)
    alg = build_W(2, 1, r_an=1, L=Lp, W=Wp)
    e = alg.eps(1)  # r = 1: this is already the full product, sign +1
    got = coefficient(e, ("y", 1))
    want = Lp * Wp.inverse()
    assert (got - want).is_zero_to_precision()


def test_inexact_zero_coordinates_keep_their_precision():
    # 5^6 known mod 5^4 is O(5^4), not 0: times 5^-6 it is O(5^-2)
    alg = build_W(1, 1, r_an=1, L=L0)
    x = alg.from_scalar(PadicNumber.from_exact(5, 5 ** 6, 4))
    assert not x.nonzero() and x == 0
    c = coefficient(x * Fraction(1, 5 ** 6), ("pi", 0))
    assert isinstance(c, PadicNumber) and not c.exact_zero
    assert c.precision == -2
    # exact zeros still go
    assert alg.from_scalar(PadicNumber.zero(5)).coords == {}
    assert alg.from_scalar(Fraction(0)).coords == {}


@pytest.mark.parametrize("call, exc, message", [
    (lambda: build_W(1, 1, r_an=1, L=Laurent.var_L()).from_lambda(
        epsilon_char(2, 5), None), DomainError,
     "Lambda images need concrete scalars"),
    (lambda: build_W(1, 1, r_an=1, L=L0).pi()
     * build_W(1, 1, r_an=1, L=L0).pi(), DomainError,
     "elements of different algebras"),
    (lambda: hecke_t_image(epsilon_char(2, 5), 1, build_W(1, 1, r_an=1, L=L0)),
     DomainError, "case 1 has no y"),
    (lambda: case1_det_identity([[1]], [[1]],
                                build_W(2, 1, r_an=1, L=L0, W=W0)),
     DomainError, "case 1 identity"),
], ids=["formal-from-lambda", "two-algebras", "hecke-t-case-1",
        "case-1-on-case-2"])
def test_input_guards(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("make, op", [
    (Laurent.var_L, operator.add), (Laurent.var_L, operator.mul),
    (Laurent.var_L, operator.eq),
    (lambda: build_W(1, 1, r_an=1, L=L0).pi(), operator.mul),
], ids=["Laurent-add", "Laurent-mul", "Laurent-eq", "WElement-mul"])
def test_foreign_operands(make, op):
    # arithmetic with an operand of a foreign type raises TypeError; == is False
    x = make()
    if op is operator.eq:
        assert op(x, object()) is False
    else:
        with pytest.raises(TypeError):
            op(x, object())
