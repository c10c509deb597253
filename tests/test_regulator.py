"""p-unit certificates and the Gross regulator."""

import json
from fractions import Fraction

import pytest

from grossstark import regulator
from grossstark.characters import is_fundamental_discriminant, kronecker
from grossstark.errors import ConsistencyError, DomainError, RamifiedError
from grossstark.padic import PadicNumber, hensel_sqrt
from grossstark.regulator import (PUnitCertificate, class_number, find_p_unit,
                                  gross_regulator_general,
                                  gross_regulator_rank1)


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
    with pytest.raises(RamifiedError):
        find_p_unit(-20, 5)       # 5 divides -20
    with pytest.raises(DomainError):
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
    conj = cert.conjugate()
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


def test_general_matches_rank1():
    cert = find_p_unit(-4, 5)
    via_general = gross_regulator_general([[cert.o]], [[cert.ell]])
    direct = gross_regulator_rank1(cert)
    assert (via_general - direct).is_zero_to_precision()


def test_general_invariances():
    # common row scaling and basis change leave det(-l)/det(o) fixed
    c1 = find_p_unit(-4, 5)
    c2 = find_p_unit(-11, 5)
    o = [[c1.o, 0], [0, c2.o]]
    l = [[c1.ell, PadicNumber.zero(5)], [PadicNumber.zero(5), c2.ell]]
    base = gross_regulator_general(o, l)
    # scale row 0 of both by 3
    o_s = [[3 * c1.o, 0], [0, c2.o]]
    l_s = [[c1.ell * 3, PadicNumber.zero(5)], [PadicNumber.zero(5), c2.ell]]
    assert (gross_regulator_general(o_s, l_s) - base).is_zero_to_precision()
    # right-multiply both by the same unimodular matrix [[1,1],[0,1]]
    o_b = [[o[i][0], o[i][0] + o[i][1]] for i in range(2)]
    l_b = [[l[i][0], l[i][0] + l[i][1]] for i in range(2)]
    assert (gross_regulator_general(o_b, l_b) - base).is_zero_to_precision()


def test_general_guards():
    with pytest.raises(DomainError):
        gross_regulator_general([], [])
    with pytest.raises(DomainError):
        gross_regulator_general([[1, 2]], [[PadicNumber.zero(5)]])
    cert = find_p_unit(-4, 5)
    with pytest.raises(DomainError):
        gross_regulator_general([[0]], [[cert.ell]])  # singular o


def test_dump_roundtrip():
    cert = find_p_unit(-4, 5)
    d = cert.dump()
    assert set(d) == {"d", "p", "h", "x", "y", "w_mod_pN", "o", "ell_digits"}
    assert d["d"] == -4 and d["p"] == 5 and d["h"] == 1
    assert all(0 <= dig < 5 for dig in d["ell_digits"])
    # digits are LSB-first base-p: fold them back
    res = sum(dig * 5 ** i for i, dig in enumerate(d["ell_digits"]))
    assert res == cert.ell.residue(cert.ell.precision)
    # and the whole thing is JSON-serializable deterministically
    s = cert.dumps()
    assert json.loads(s) == d


def test_immutability():
    cert = find_p_unit(-4, 5)
    with pytest.raises(AttributeError):
        cert.h = 2
