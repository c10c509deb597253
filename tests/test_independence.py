"""The two sides of an identity share only inputs that a third check guards.

Each side of one `gross-stark` check, its class-number formula, `interp`
at each n it checks and one `lambda-nu` check runs under `sys.setprofile`
and records the `src/` functions it calls.  The functions both sides call
must be exactly the committed shared inputs below, and each names the
tier-1 test that checks it against something neither side computes.  A
side that starts routing through the other's code (the series engine, the
p-unit search) adds names to the intersection and fails here.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import pytest

import grossstark
from grossstark import characters, padic
from grossstark.characters import BernoulliCache, DirichletCharacter
from grossstark.lambdaring import epsilon_char, nu_k
from grossstark.lfunctions import (LSeriesInstance, analytic_invariant,
                                   classical_L_at_nonpositive,
                                   kubota_leopoldt, lstar)
from grossstark.padic import angle_bracket
from grossstark.regulator import (class_number, find_p_unit,
                                  gross_regulator_rank1)

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

# check -> the functions both of its sides call
SHARED = {
    "gross-stark": {
        "characters._fold_discriminant",
        "characters.is_fundamental_discriminant",
        "characters.kronecker", "padic.PadicNumber.__init__",
        "padic.PadicNumber.__mul__", "padic.PadicNumber.from_exact",
        "padic.PadicNumber.is_zero_to_precision", "padic.PadicNumber.residue",
        "padic.factorize", "padic.is_prime", "padic.plog", "padic.v_p"},
    "class-number": set(),
    "interp": INTERP,
    "interp n=0": INTERP,
    "interp n=-1": INTERP_ODD,
    "interp n=-3": INTERP_ODD,
    "lambda-nu": {
        "padic.PadicNumber.__init__", "padic.PadicNumber.from_exact",
        "padic.is_prime", "padic.v_p"},
}

P, D, N, S = 5, -4, 12, -2
CHI = DirichletCharacter.quadratic(D)
# lambda-nu at x = 2 over the k it reads at p = 5, at cli's M = max(16, N - 4);
# nu_k declares N digits at each k here, and cli asks <x> for 2 more
X, M, KS = 2, 16, (1, 2, 3, 5)


def _nu_of_epsilon():
    h = epsilon_char(X, P, M=M, N=N)
    return [nu_k(h, k) for k in KS]


def _interp(n):
    return (lambda: kubota_leopoldt(LSeriesInstance(P, CHI, N), n),
            lambda: lstar(CHI.teichmuller_twist(n, P), n, P, prec=N + 4))


# check -> its two sides, each a call made the way cli makes it
SIDES = {
    "gross-stark": (
        lambda: analytic_invariant(LSeriesInstance(P, CHI, N)),
        lambda: gross_regulator_rank1(find_p_unit(D, P, N=N))),
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
}


def _names() -> dict:
    """module.qualname of each src/ function and method, by code object.

    Code objects carry no qualified name before Python 3.11.  Comprehensions
    and nested functions are left out: they run inside a function listed
    here.
    """
    names = {}
    for info in pkgutil.iter_modules(grossstark.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"grossstark.{info.name}")
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
    monkeypatch.setattr(characters, "_shared_cache", None)
    monkeypatch.setattr(characters, "_default_cache", BernoulliCache())
    padic.teichmuller_lift.cache_clear()
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
