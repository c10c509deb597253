"""The two sides of an identity share only inputs that a third check guards.

Each side of every two-sided comparison that `verify` makes runs under
`sys.setprofile` and records the `src/` functions it calls: `gross-stark`
at three instances, its class-number formula, `interp` at each n it
checks, one `lambda-nu` and one `lambda-normalize` check, and the
`walg-det` identity.  Every side starts from cold process state: each
`functools.cache` of `src/` is cleared and the Bernoulli table is empty, so
a memoized function shows on every side that needs it.  The functions both
sides call must be exactly the committed shared inputs below, and each
names the tier-1 test that checks it against something neither side
computes.  A side that starts routing through the other's code (the series
engine, the p-unit search) adds names to the intersection and fails here.

Two checks are exempt:
- `hecke-eigen` compares T_l E with lambda E from one E, by design.
- `hecke-up` builds E and E_J by two `eisenstein` calls on different
  characters, so both sides run the same code.  A memo that merged the two
  calls would break the U_p shift law's branch 1, which
  `test_qexp::test_up_shift_law` checks.
"""

import importlib
import inspect
import os
import pkgutil
import sys
from fractions import Fraction

import pytest

import grossstark
from grossstark import characters
from grossstark.characters import BernoulliCache, DirichletCharacter
from grossstark.lambdaring import (epsilon_char, nu_k, pi_normalize,
                                   uniformizer)
from grossstark.lfunctions import (LSeriesInstance, analytic_invariant,
                                   classical_L_at_nonpositive,
                                   kubota_leopoldt, lstar)
from grossstark.padic import angle_bracket
from grossstark.regulator import (class_number, find_p_unit,
                                  gross_regulator_rank1)
from grossstark.walgebra import build_W, det

SRC = os.path.dirname(os.path.abspath(characters.__file__))

# shared input -> the test (module::function) that guards it
GUARDS = {
    "characters.BernoulliCache.number":
        "test_characters::test_bernoulli_table_known_values",
    "characters.bernoulli_number":
        "test_characters::test_bernoulli_table_known_values",
    "characters._bernoulli_range":
        "test_characters::test_bernoulli_table_known_values",
    "characters._bernoulli_table_valid": "test_characters::"
        "test_bernoulli_check_skipping_zeros_matches_the_oracle",
    "characters.DirichletCharacter.__init__":
        "test_characters::test_quadratic_character_values",
    "characters.DirichletCharacter.conductor":
        "test_characters::test_quadratic_character_values",
    "characters._fold_discriminant":
        "test_characters::test_fundamental_discriminants",
    "characters.DirichletCharacter.residue":
        "test_characters::test_residue_is_the_value_as_an_int",
    "characters._canonicalize":
        "test_characters::test_constructor_moves_p_star_into_omega",
    "characters.DirichletCharacter.teichmuller_twist":
        "test_characters::test_teichmuller_twist_always_carries_p",
    "characters.kronecker":
        "test_characters::test_kronecker_against_euler_criterion",
    "characters.is_fundamental_discriminant":
        "test_characters::test_fundamental_discriminants",
    "padic.PadicNumber.__init__":
        "test_padic::test_from_exact_matches_the_oracle",
    "padic.PadicNumber.from_exact":
        "test_padic::test_from_exact_matches_the_oracle",
    "padic.PadicNumber.residue":
        "test_padic::test_from_exact_matches_the_oracle",
    "padic.PadicNumber.__mul__":
        "test_padic::test_multiplication_precision_rule",
    "padic.PadicNumber.is_zero_to_precision":
        "test_padic::test_exact_zero_vs_precision_zero",
    "padic.plog": "test_padic::test_plog_matches_the_series",
    "padic.v_p": "test_padic::test_v_p_basics",
    "padic.factorize": "test_padic::test_factorize",
    "padic.is_prime": "test_padic::test_is_prime_against_a_sieve",
    "padic.teichmuller_lift": "test_padic::test_teichmuller_binding_values",
    "padic.PadicNumber.__pow__":
        "test_padic::test_pow_matches_square_and_multiply",
    "padic.PadicNumber.precision":
        "test_padic::test_exact_zero_vs_precision_zero",
    "lambdaring.topological_generator":
        "test_lambdaring::test_topological_generator_is_one_mod_p_only",
    "lambdaring._log_u": "test_lambdaring::test_log_u_matches_the_series",
    "lambdaring.LambdaElement.__init__":
        "test_lambdaring::test_coefficients_are_padded_and_cut_at_M",
    "walgebra.det": "test_walgebra::test_det_matches_leibniz",
}

# interp's two sides at an even n, where the twist chi omega^n is real
INTERP = {
    "characters.BernoulliCache.number", "characters.bernoulli_number",
    "characters._bernoulli_range", "characters._bernoulli_table_valid",
    "characters.DirichletCharacter.__init__",
    "characters.DirichletCharacter.conductor",
    "characters.DirichletCharacter.residue",
    "characters.DirichletCharacter.teichmuller_twist",
    "characters._canonicalize", "characters._fold_discriminant",
    "characters.is_fundamental_discriminant",
    "characters.kronecker", "padic.factorize", "padic.is_prime"}
# at an odd n the twist is p-adic valued, and both sides build p-adic values
INTERP_ODD = INTERP | {
    "padic.PadicNumber.__init__", "padic.PadicNumber.from_exact",
    "padic.teichmuller_lift", "padic.v_p"}

GROSS_STARK = {
    "characters._fold_discriminant", "characters.is_fundamental_discriminant",
    "characters.kronecker", "padic.PadicNumber.__init__",
    "padic.PadicNumber.__mul__", "padic.PadicNumber.from_exact",
    "padic.PadicNumber.is_zero_to_precision", "padic.PadicNumber.residue",
    "padic.factorize", "padic.is_prime", "padic.plog", "padic.v_p"}

# check -> the functions both of its sides call
SHARED = {
    "gross-stark": GROSS_STARK,
    "gross-stark p=7 d=-3": GROSS_STARK,
    "gross-stark p=3 d=-215": GROSS_STARK,
    "class-number": set(),
    "interp": INTERP,
    "interp n=0": INTERP,
    "interp n=-1": INTERP_ODD,
    "interp n=-3": INTERP_ODD,
    "lambda-nu": {
        "padic.PadicNumber.__init__", "padic.PadicNumber.from_exact",
        "padic.factorize", "padic.is_prime", "padic.v_p"},
    "lambda-normalize": {
        "lambdaring.LambdaElement.__init__", "lambdaring._log_u",
        "lambdaring.topological_generator", "padic.PadicNumber.__init__",
        "padic.PadicNumber.__mul__", "padic.PadicNumber.__pow__",
        "padic.PadicNumber.from_exact", "padic.PadicNumber.precision",
        "padic.factorize", "padic.is_prime", "padic.plog", "padic.v_p"},
    "walg-det": {"walgebra.det"},
}

P, D, N, S = 5, -4, 12, -2
CHI = DirichletCharacter.quadratic(D)
# lambda-nu at x = 2 over the k it reads at p = 5, at cli's M = max(16, N - 4);
# nu_k declares N digits at each k here, and cli asks <x> for 2 more
X, M, KS = 2, 16, (1, 2, 3, 5)
# lambda-normalize's input, made as cli makes it: h = eps(x) - nu_1(eps(x))
EPS = epsilon_char(X, P, M=M, N=N)
H = EPS - EPS.coeff(0)
ORDER = pi_normalize(H)[0]
# walg-det at r = 3 on the concrete case-2 algebra, with fixed o and l
O_MAT = [[Fraction(1, 2), Fraction(-3), Fraction(2, 5)],
         [Fraction(7, 3), Fraction(0), Fraction(-1, 4)],
         [Fraction(5), Fraction(1, 7), Fraction(-2)]]
L_MAT = [[Fraction(-4, 3), Fraction(1), Fraction(3, 2)],
         [Fraction(2), Fraction(-5, 6), Fraction(1, 3)],
         [Fraction(0), Fraction(9, 2), Fraction(-1)]]


def _gross_stark(p, d):
    chi = DirichletCharacter.quadratic(d)
    return (lambda: analytic_invariant(LSeriesInstance(p, chi, N)),
            lambda: gross_regulator_rank1(find_p_unit(d, p, N=N)))


def _nu_of_epsilon():
    h = epsilon_char(X, P, M=M, N=N)
    return [nu_k(h, k) for k in KS]


def _interp(n):
    return (lambda: kubota_leopoldt(LSeriesInstance(P, CHI, N), n),
            lambda: lstar(CHI.teichmuller_twist(n, P), n, P, prec=N + 4))


def _finite_differences():
    """nu_k(h) / nu_k(pi)^n at k = 1 + p^m, m = 2, 3."""
    out = []
    for m in (2, 3):
        k = 1 + P ** m
        num = nu_k(H, k)
        den = nu_k(uniformizer(P, M, num.precision + 4), k) ** ORDER
        out.append(num * den.inverse())
    return out


def _case2_det():
    """det of the rows (pi - y) l_ij + eps_i o_ij."""
    alg = build_W(2, 3, r_an=3, L=Fraction(5, 3), W=Fraction(2, 7))
    gen = alg.pi() - alg.y()
    return det([[gen * lij + alg.eps(i + 1) * oij
                 for lij, oij in zip(L_MAT[i], O_MAT[i])] for i in range(3)])


# check -> its two sides, each a call made the way cli makes it
SIDES = {
    "gross-stark": _gross_stark(P, D),
    # w = 6, and a p-unit search that runs to h = 14
    "gross-stark p=7 d=-3": _gross_stark(7, -3),
    "gross-stark p=3 d=-215": _gross_stark(3, -215),
    # h(d) = (w/2) L(chi_d, 0), with w/2 = 2 at d = -4
    "class-number": (
        lambda: class_number(D),
        lambda: 2 * classical_L_at_nonpositive(CHI, 0)),
    # interp at S = -2, and at the other n that cli checks
    "interp": _interp(S),
    **{f"interp n={n}": _interp(n) for n in (0, -1, -3)},
    "lambda-nu": (
        _nu_of_epsilon,
        lambda: [angle_bracket(X, P, N + 2) ** (k - 1) for k in KS]),
    "lambda-normalize": (
        _finite_differences, lambda: pi_normalize(H)[1].coeff(0)),
    "walg-det": (
        _case2_det, lambda: (det(L_MAT), det(O_MAT))),
}


# every src/ module but __main__, which runs the CLI on import
MODULES = [importlib.import_module(f"grossstark.{info.name}")
           for info in pkgutil.iter_modules(grossstark.__path__)
           if not info.name.startswith("_")]
# every functools.cache in them
MEMOS = {obj for module in MODULES for obj in vars(module).values()
         if hasattr(obj, "cache_clear")}


def _names() -> dict:
    """module.qualname of each src/ function and method, by code object.

    Code objects carry no qualified name before Python 3.11.  Comprehensions
    and nested functions are left out: they run inside a function listed
    here.
    """
    names = {}
    for module in MODULES:
        for obj in vars(module).values():
            for f in vars(obj).values() if isinstance(obj, type) else (obj,):
                # a method, classmethod, property or functools.cache wrapper
                f = getattr(f, "__func__", getattr(f, "fget", f))
                f = inspect.unwrap(f)
                code = getattr(f, "__code__", None)
                if code is not None and code.co_filename.startswith(SRC):
                    short = f.__module__.rsplit(".", 1)[1]
                    names[code] = f"{short}.{f.__qualname__}"
    return names


NAMES = _names()


def called(side, monkeypatch):
    """The src/ functions side() calls, as module.qualname, from cold caches
    (so a memoized function shows on every side that needs it)."""
    monkeypatch.setattr(characters, "_cache", BernoulliCache())
    for memo in MEMOS:
        memo.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            seen.add(NAMES[frame.f_code])

    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("check", sorted(SIDES))
def test_sides_share_only_guarded_inputs(check, monkeypatch):
    first, second = (called(side, monkeypatch) for side in SIDES[check])
    assert first & second == SHARED[check]


def test_every_shared_input_names_a_guard_that_exists():
    assert set(GUARDS) == set().union(*SHARED.values())
    for guard in GUARDS.values():
        module, name = guard.split("::")
        assert callable(getattr(importlib.import_module(module), name)), guard
