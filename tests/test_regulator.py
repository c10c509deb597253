"""p-unit certificates and the Gross regulator."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from grossstark import regulator
from grossstark.characters import (DirichletCharacter,
                                   is_fundamental_discriminant, kronecker)
from grossstark.errors import ConsistencyError, DomainError, PrecisionError
from grossstark.lfunctions import classical_L_at_nonpositive
from grossstark.padic import hensel_sqrt
from grossstark.regulator import (PUnitCertificate, class_number, find_p_unit,
                                  gross_regulator_rank1)

from test_precision import check_row


def test_find_p_unit_binding_examples():
    # (d, p) -> (h, x, y) for the canonical smallest-x Cornacchia solution
    want = {(-4, 5): (1, 2, 2), (-3, 7): (1, 1, 3), (-4, 13): (1, 4, 3)}
    for (d, p), (h, x, y) in want.items():
        cert = find_p_unit(d, p)
        assert (cert.h, cert.x, cert.y) == (h, x, y), (d, p)
        assert (cert.x ** 2 - d * cert.y ** 2) // 4 == p ** cert.h


def test_find_p_unit_higher_class_number():
    # orders of P in the class group: 3, 5, 7, 41 for these fields
    assert find_p_unit(-23, 13).h == 3
    assert find_p_unit(-47, 7).h == 5
    assert find_p_unit(-71, 5).h == 7
    assert find_p_unit(-1151, 3).h == 41  # the search runs to h(d) = 41


def test_find_p_unit_guards():
    with pytest.raises(DomainError):
        find_p_unit(-6, 5)        # -6 is not a fundamental discriminant
    with pytest.raises(DomainError):
        find_p_unit(5, 11)        # positive
    with pytest.raises(DomainError, match=r"chi\(5\) = 0"):
        find_p_unit(-20, 5)       # 5 divides -20
    with pytest.raises(DomainError, match=r"chi\(7\) = -1"):
        find_p_unit(-4, 7)        # inert


def test_class_number_known_values():
    for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163):  # Heegner
        assert class_number(d) == 1, d
    want = {-23: 3, -47: 5, -71: 7, -119: 10, -215: 14, -1151: 41}
    for d, h in want.items():
        assert class_number(d) == h, d
    # non-fundamental: (2, 2, 2), (2, 0, 2) and (2, 2, 4) are not primitive
    assert [class_number(d) for d in (-12, -16, -28)] == [1, 1, 1]
    for d in (0, 5, -1, -6):
        with pytest.raises(DomainError):
            class_number(d)


def test_class_number_formula():
    # Dirichlet: h(d) = (w/2) L(chi_d, 0), the regulator layer's reduced
    # forms against the characters layer's generalized Bernoulli number
    discs = [d for d in range(-999, -2) if is_fundamental_discriminant(d)]
    assert len(discs) == 305
    for d in discs:
        w = {-3: 6, -4: 4}.get(d, 2)
        L0 = classical_L_at_nonpositive(DirichletCharacter.quadratic(d), 0)
        assert class_number(d) == Fraction(w, 2) * L0, d


def test_p_unit_order_divides_class_number():
    found = 0
    for d in range(-3, -400, -1):
        if not is_fundamental_discriminant(d):
            continue
        hd = class_number(d)
        for p in (3, 5, 7, 11, 13):
            if kronecker(d, p) == 1:
                assert hd % find_p_unit(d, p).h == 0, (d, p)
                found += 1
    assert found > 200


def test_empty_search_is_a_consistency_error(monkeypatch):
    # the order of P divides h(d), so no solution up to h(d) is a fault
    monkeypatch.setattr(regulator, "cornacchia", lambda D, m: None)
    with pytest.raises(ConsistencyError, match="h\\(d\\) = 3"):
        find_p_unit(-23, 13)


def test_certificate_validation():
    w = hensel_sqrt(-4, 5, 12)
    with pytest.raises(DomainError):
        PUnitCertificate(-4, 5, 1, 2, 3, w)   # wrong norm
    with pytest.raises(DomainError):
        PUnitCertificate(-4, 5, 1, 1, 2, w)   # parity: x^2 - d y^2 odd
    with pytest.raises(DomainError):
        PUnitCertificate(-4, 5, 1, 2, 2, hensel_sqrt(-4, 13, 12))  # wrong prime
    wrong_root = w + 5  # no longer a square root of -4
    with pytest.raises(DomainError):
        PUnitCertificate(-4, 5, 1, 2, 2, wrong_root)


def test_certificate_rejects_a_non_primitive_pi():
    # pi = 5 + 10i = 5 (1 + 2i) has norm 5^3 but is divisible by 5: both
    # embeddings have positive valuation, so they do not separate the primes
    with pytest.raises(PrecisionError, match="did not separate the primes"):
        PUnitCertificate(-4, 5, 3, 10, 10, hensel_sqrt(-4, 5, 12))


def test_certificate_rejects_h_zero():
    # (1^2 + 3 * 1^2)/4 = 7^0: a valid norm identity that would measure o = 0
    with pytest.raises(DomainError):
        PUnitCertificate(-3, 7, 0, 1, 1, hensel_sqrt(-3, 7, 16))


def test_measurements():
    cert = find_p_unit(-4, 5)
    o, ell = cert.o, cert.ell
    assert o in (1, -1)
    assert abs(o) == cert.h
    assert ell.valuation >= 1  # log of a principal unit pair
    # the deeper fields measure o = +-h as well
    cert3 = find_p_unit(-23, 13)
    assert abs(cert3.o) == 3


def test_root_swap_flips_both_measurements():
    cert = find_p_unit(-4, 5)
    conj = PUnitCertificate(cert.d, cert.p, cert.h, cert.x, cert.y, -cert.w)
    assert conj.o == -cert.o
    assert (conj.ell + cert.ell).is_zero_to_precision()
    # the regulator is invariant
    r1 = gross_regulator_rank1(cert)
    r2 = gross_regulator_rank1(conj)
    assert (r1 - r2).is_zero_to_precision()


def test_associate_invariance():
    # (x, y) -> unit-multiple generator of the same ideal: same regulator.
    # In Z[i], (2+2i)/2 = 1+i has associate i(1+i) = -1+i, giving (x, y) = (-2, 2).
    cert = find_p_unit(-4, 5)
    other = PUnitCertificate(-4, 5, 1, -2, 2, cert.w)
    r1 = gross_regulator_rank1(cert)
    r2 = gross_regulator_rank1(other)
    assert (r1 - r2).is_zero_to_precision()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_regulator_declared_precision_is_real(p):
    # the rank-1 row of the precision table at this p: every d with
    # |d| < 400 in which p splits, at least N digits declared, all real
    check_row("gross_regulator_rank1", lambda case: case[0] == p)


def test_regulator_locked_value():
    # the worked rank-1 instance: R_p(-4, 5) pinned to 12 digits
    reg = gross_regulator_rank1(find_p_unit(-4, 5))
    assert reg.valuation == 1
    assert reg.residue(12) == 19298281 * 5


def test_second_locked_instance():
    # (d, p) = (-3, 7): h = 1, regulator determined up to the root choice
    cert = find_p_unit(-3, 7)
    reg = gross_regulator_rank1(cert)
    assert reg.valuation >= 1
    # recomputing from scratch is stable
    again = gross_regulator_rank1(find_p_unit(-3, 7))
    assert (reg - again).is_zero_to_precision()


def test_dump_roundtrip():
    cert = find_p_unit(-4, 5)
    d = cert.dump()
    assert set(d) == {"d", "p", "h", "x", "y", "w_mod_pN", "o", "ell_digits"}
    assert d["d"] == -4 and d["p"] == 5 and d["h"] == 1
    assert all(0 <= dig < 5 for dig in d["ell_digits"])
    # digits are LSB-first base-p: fold them back
    res = sum(dig * 5 ** i for i, dig in enumerate(d["ell_digits"]))
    assert res == cert.ell.residue(cert.ell.precision)
    # and the whole thing is JSON-serializable
    assert json.loads(json.dumps(d)) == d


def test_regulator_does_not_import_walgebra():
    # the arithmetic side of gross-stark stands without the W-algebra module
    tree = ast.parse(Path(regulator.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert names and "walgebra" not in names
