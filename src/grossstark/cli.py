"""Batch verification driver with machine-readable JSON reports.

Subcommands mirror the library's check families:

    verify interp        interpolation of the p-adic L-function
    verify gross-stark   analytic L-invariant against the p-unit regulator
    verify w-algebra     algebra structure and determinant identities
    verify hecke         U_p relations and the Eisenstein eigenform law
    verify lambda        weight-specialization bridge nu_k(eps(x)) = <x>^{k-1}

Exit codes: 0 when every check passes (inconclusive counts as non-failure),
1 when any check fails or errors, 2 for usage/configuration problems and
when the cache directory cannot be made or the cache or the report cannot
be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import cache
from itertools import count, islice

from . import __version__
from .characters import (BernoulliCache, DirichletCharacter,
                         is_fundamental_discriminant, set_shared_cache)
from .errors import ConsistencyError, PrecisionError
from .lambdaring import (DEFAULT_TRUNCATION, epsilon_char, nu_k, pi_normalize,
                         uniformizer)
from .lfunctions import (CONCLUSIVE_PRECISION, LSeriesInstance,
                         analytic_invariant, kubota_leopoldt, lstar,
                         working_precision)
from .padic import Immutable, PadicNumber, angle_bracket, is_prime
from .qexp import eisenstein, hecke_T, verify_up_relation
from .regulator import class_number, find_p_unit, gross_regulator_rank1
from .walgebra import (Laurent, build_W, case1_det_identity,
                       case2_det_identity, case3_det_identity, det)

# the largest --p accepted: trial division proves any p up to here prime in
# at most 160 steps, and gross-stark near it already runs for minutes
MAX_P = 10 ** 5
# bounds on --disc: the fundamental-discriminant test divides up to sqrt|d|,
# and for interp and gross-stark the series engine's time and memory grow
# with F*W, F = |d| p and W its working precision (the largest instance
# timed, p = 3, d = -30011, N = 12, has F*W = 1.8e6 and takes 0.9-1.1 s)
MAX_ABS_D = 10 ** 5
MAX_FW = 2 * 10 ** 6
# bounds on the count options, far above every workload call (--trials 30,
# --qexp-terms up to 1000, --lambda-trunc 16).  w-algebra costs about 3 ms
# a trial (1000 trials take 2.9-3.0 s), so MAX_TRIALS runs for about 30 s
MAX_TRIALS = 10 ** 4
# 4 MAX_P, so every admitted p has an admitted hecke length: hecke --p 5
# --disc -4 takes 0.4 s at 10^5 terms and 2.1 s (25 MB peak) at 4 * 10^5
MAX_QEXP_TERMS = 4 * MAX_P
# lambda grows about as M^1.5 (--p 5: 0.29 s at M = 512, 0.99 s at 1024,
# 2.8 s at 2048); the three default primes take 3.6 s at 1024.  lambda runs
# at M >= N - 4, so this bounds its --prec too: --p 5 --prec 1028 takes 8.9 s
MAX_LAMBDA_TRUNC = 1024


class RunConfig(Immutable):
    """Validated parameters of one verification run, with verify's defaults."""

    __slots__ = ("command", "primes", "discs", "prec", "qexp_terms",
                 "lambda_trunc", "trials", "json_path", "cache_dir")

    # the one source of verify's defaults: build_parser reads __kwdefaults__
    def __init__(self, command: str, *, primes=(3, 5, 7), discs=(),
                 prec: int = 12, qexp_terms: int = 200,
                 lambda_trunc: int = DEFAULT_TRUNCATION, trials: int = 100,
                 json_path: str | None = None, cache_dir: str | None = None):
        values = {**locals(), "primes": tuple(primes), "discs": tuple(discs)}
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def validate(self):
        if self.prec <= 0:
            raise UsageError(f"precision must be positive, got {self.prec}")
        if self.command == "hecke" and self.qexp_terms < 4 * max(self.primes):
            raise UsageError(
                f"qexp-terms must be at least 4p = {4 * max(self.primes)}")
        if self.qexp_terms > MAX_QEXP_TERMS:
            raise UsageError(f"qexp-terms = {self.qexp_terms} is above "
                             f"MAX_QEXP_TERMS = {MAX_QEXP_TERMS}")
        if self.lambda_trunc < 1:
            raise UsageError("lambda-trunc must be at least 1")
        if self.lambda_trunc > MAX_LAMBDA_TRUNC:
            raise UsageError(f"lambda-trunc = {self.lambda_trunc} is above "
                             f"MAX_LAMBDA_TRUNC = {MAX_LAMBDA_TRUNC}")
        # lambda runs at M = N - 4 or more (cmd_lambda_check)
        if self.command == "lambda" and self.prec - 4 > MAX_LAMBDA_TRUNC:
            raise UsageError(f"prec - 4 = {self.prec - 4} is above "
                             f"MAX_LAMBDA_TRUNC = {MAX_LAMBDA_TRUNC}")
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise UsageError(
                f"trials = {self.trials} is above MAX_TRIALS = {MAX_TRIALS}")
        for p in self.primes:
            if p > MAX_P:
                raise UsageError(f"p = {p} is above MAX_P = {MAX_P}")
            if p < 3 or not is_prime(p):
                raise UsageError(f"p must be an odd prime, got {p}")
        for d in self.discs:
            if abs(d) > MAX_ABS_D:
                raise UsageError(f"|{d}| is above MAX_ABS_D = {MAX_ABS_D}")
            if d >= 0 or not is_fundamental_discriminant(d):
                raise UsageError(
                    f"disc {d} is not a negative fundamental discriminant")
            # hecke-eigen's T_l reads the q-expansion up to q^l
            if (self.command == "hecke"
                    and self.qexp_terms < (ell := eigen_primes(d)[-1])):
                raise UsageError(f"qexp-terms must be at least {ell}, "
                                 f"the tenth prime coprime to {d}")
        if self.command in ("interp", "gross-stark", "hecke") and not self.discs:
            raise UsageError(f"'{self.command}' needs at least one --disc")
        fw = (max(self.primes, default=0) * working_precision(self.prec)
              * max(map(abs, self.discs), default=0))
        if self.command in ("interp", "gross-stark") and fw > MAX_FW:
            raise UsageError(f"F*W = {fw} is above MAX_FW = {MAX_FW}")
        folder = os.path.dirname(self.json_path or "") or "."
        if not os.path.isdir(folder):
            raise UsageError(f"cannot write the report: no directory {folder}")

    @property
    def conclusive(self) -> bool:
        # neither reads --prec: w-algebra's scalars are exact, and hecke's
        # quadratic characters give int q-expansions past a Fraction c(0)
        if self.command in ("w-algebra", "hecke"):
            return True
        return self.prec >= CONCLUSIVE_PRECISION

    def echo(self) -> dict:
        """The fields in order, minus json_path, as the report shows them."""
        values = ((name, getattr(self, name)) for name in self.__slots__
                  if name != "json_path")
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values}


class UsageError(Exception):
    pass


class ReportBuilder:
    """Collects per-check records; computes the aggregate exit code."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.checks = []
        self.warnings = []

    def run(self, check_id, instance, fn):
        """Time fn() -> (status, valuation, detail); record and return it."""
        t0 = time.perf_counter()
        error = None
        try:
            status, val, detail = fn()
        except ConsistencyError as exc:
            status, val, detail = "fail", None, str(exc)
        except PrecisionError as exc:
            status, val, detail = "inconclusive", None, str(exc)
        except Exception as exc:  # any other fault: the batch goes on
            status, val, detail = "error", None, str(exc)
            error = type(exc).__name__
        ms = round((time.perf_counter() - t0) * 1000, 3)
        if status in ("pass", "fail") and not self.config.conclusive:
            if status == "fail":
                detail = (detail or "") + " [low precision]"
            status = "inconclusive"
            self.warnings.append(
                f"{check_id} {instance}: precision {self.config.prec} < "
                f"{CONCLUSIVE_PRECISION}, result inconclusive")
        rec = {"id": check_id, "instance": instance, "status": status,
               "discrepancy_valuation": val, "ms": ms}
        if detail is not None:
            rec["detail"] = detail
        if error is not None:
            rec["error"] = error
        self.checks.append(rec)
        return rec

    def report(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.echo(),
            "checks": self.checks,
            "warnings": self.warnings,
        }

    def exit_code(self) -> int:
        if any(c["status"] in ("fail", "error") for c in self.checks):
            return 1
        return 0


def _valuation(x: PadicNumber):
    v = x.valuation
    return None if v == math.inf else v


def _least_valuation(diffs):
    """The verdict of interp, lambda-nu and lambda-normalize over their
    (label, diff, target) triples, read in order: a diff that is zero to its
    precision is skipped, the first one below its target fails, and
    otherwise the check passes with the least valuation seen (None when
    every diff was zero)."""
    least = None
    for label, diff, target in diffs:
        if diff.is_zero_to_precision():
            continue
        v = diff.valuation
        if v < target:
            return "fail", v, f"{label}valuation {v} < {target}"
        least = v if least is None else min(least, v)
    return "pass", least, None


# -- subcommands -----------------------------------------------------------
# Each subcommand yields (check_id, instance, check) triples, where check()
# returns (status, valuation, detail); main runs and records each one.


def cmd_interp_check(config: RunConfig):
    for p in config.primes:
        for d in config.discs:
            for n in (0, -1, -2, -3):
                def check(p=p, d=d, n=n):
                    chi = DirichletCharacter.quadratic(d)
                    instance = LSeriesInstance(p, chi, config.prec)
                    series = kubota_leopoldt(instance, n)
                    exact = lstar(chi.teichmuller_twist(n, p), n, p,
                                  prec=series.precision + 4)
                    return _least_valuation(
                        [("discrepancy ", series - exact, config.prec - 2)])

                yield "interp", f"p={p} d={d} n={n}", check


def cmd_gross_stark(config: RunConfig):
    for p in config.primes:
        for d in config.discs:
            def check(p=p, d=d):
                # the p-unit search decides the split and fails in
                # milliseconds, the series engine takes seconds: search first
                cert = find_p_unit(d, p, N=config.prec)
                chi = DirichletCharacter.quadratic(d)
                instance = LSeriesInstance(p, chi, config.prec)
                lan, classical = analytic_invariant(instance)
                # Dirichlet's class number formula h(d) = (w/2) L(chi_d, 0)
                h, half_w = class_number(d), {-3: 3, -4: 2}.get(d, 1)
                if h != half_w * classical:
                    raise ConsistencyError(
                        f"class number formula fails: h({d}) = {h}, "
                        f"(w/2) L(chi, 0) = {half_w * classical}")
                reg = gross_regulator_rank1(cert)
                diff = lan - reg
                target = config.prec - 4
                if diff.is_zero_to_precision() or diff.valuation >= target:
                    return "pass", _valuation(diff), None
                mirror = lan + reg
                if mirror.is_zero_to_precision() or mirror.valuation >= target:
                    return ("fail", _valuation(diff),
                            "convention flag: pure sign mismatch between "
                            "analytic and regulator sides")
                return ("fail", _valuation(diff),
                        f"discrepancy valuation {diff.valuation} < {target}")

            yield "gross-stark", f"p={p} d={d}", check


def _random_fraction_matrix(rng, r):
    from fractions import Fraction
    return [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for _ in range(r)] for _ in range(r)]


def cmd_w_algebra(config: RunConfig):
    import random
    from fractions import Fraction
    rng = random.Random(20260817)

    @cache
    def algebra(case, r, mode):
        """The (case, r, scalar mode) algebra, built on first use in this run."""
        if mode == "concrete":
            L, W = Fraction(5, 3), Fraction(2, 7)
        else:
            L, W = Laurent.var_L(), Laurent.var_W()
        if case == 1:
            return build_W(1, r, r_an=r, L=L)
        if case == 2:
            return build_W(2, r, r_an=r, L=L, W=W)
        return build_W(3, r, s=r + 1, t=r, L=L, W=W)

    for r in (1, 2, 3):
        def dims(r=r):
            a1 = algebra(1, r, "concrete")
            a2 = algebra(2, r, "concrete")
            ok = (a1.dimension == 2 ** r + r - 1
                  and a2.dimension == 2 ** r + 2 * r - 2)
            return ("pass" if ok else "fail"), None, \
                f"dims {a1.dimension}, {a2.dimension}"
        yield "walg-structure", f"r={r}", dims

        for mode in ("concrete", "formal"):
            def idents(r=r, mode=mode):
                a1, a2, a3 = (algebra(case, r, mode) for case in (1, 2, 3))
                checks = ((case1_det_identity, a1), (case2_det_identity, a2),
                          (case3_det_identity, a3))
                for _ in range(config.trials):
                    o = _random_fraction_matrix(rng, r)
                    lm = _random_fraction_matrix(rng, r)
                    # the right sides' pair, shared by the three identities
                    dets = (det(lm), det(o))
                    for fn, alg in checks:
                        if fn(o, lm, alg, dets=dets).nonzero():
                            return "fail", None, f"{fn.__name__} residue nonzero"
                # ring identities
                diff = a2.pi() - a2.y()
                power = a2.one()
                for _ in range(r):
                    power = power * diff
                if power != a2.pi(r) - a2.y(r):
                    return "fail", None, "(pi-y)^r != pi^r - y^r"
                if a3.y(r) != a3.pi(r + 1) * a3.W:
                    return "fail", None, "y^t != W pi^s"
                return "pass", None, None
            yield "walg-det", f"r={r} {mode}", idents


def eigen_primes(d: int) -> list:
    """The first ten primes l coprime to d, the T_l that hecke-eigen checks."""
    return list(islice((ell for ell in count(2) if d % ell and is_prime(ell)),
                       10))


def cmd_hecke_check(config: RunConfig):
    for p in config.primes:
        for d in config.discs:
            def up_check(p=p, d=d):
                chi = DirichletCharacter.quadratic(d)
                first, checked = verify_up_relation(chi, p,
                                                    n_q=config.qexp_terms)
                if first is None:
                    return "pass", None, f"{checked} coefficients"
                return "fail", None, f"first discrepancy {first}"

            yield "hecke-up", f"p={p} d={d}", up_check

    for d in config.discs:
        def eigen(d=d):
            chi = DirichletCharacter.quadratic(d)
            form = eisenstein(1, chi, n_terms=config.qexp_terms)
            for ell in eigen_primes(d):
                lam = 1 + chi.residue(ell)  # zip stops at T_l's horizon
                for n, (t, c) in enumerate(zip(hecke_T(ell, form).coeffs,
                                               form.coeffs)):
                    if t != lam * c:
                        return "fail", None, f"T_{ell} at q^{n}"
            return "pass", None, "10 primes"

        yield "hecke-eigen", f"d={d}", eigen


def cmd_lambda_check(config: RunConfig):
    # --lambda-trunc is a floor: nu_k declares at most (M + 1) v_p(u^(k-1) - 1)
    # digits, M + 1 at k = 2, and lambda-nu compares N - 3 of them
    N = config.prec
    M = max(config.lambda_trunc, N - 4)
    for p in config.primes:
        units = [x for x in range(2, 40) if x % p][:10]
        for x in units:
            def check(p=p, x=x):
                h = epsilon_char(x, p, M=M, N=N)

                def diffs():
                    for k in dict.fromkeys((1, 2, 3, 5, 1 + (p - 1))):
                        got = nu_k(h, k)
                        want = angle_bracket(x, p, got.precision + 2) ** (k - 1)
                        yield f"k={k} ", got - want, N - 3
                return _least_valuation(diffs())

            yield "lambda-nu", f"p={p} x={x}", check

        def bridge(p=p, x=units[0]):
            h0 = epsilon_char(x, p, M=M, N=N)
            h = h0 - h0.coeff(0)  # vanishes at T = 0
            n, hp = pi_normalize(h)
            lead = hp.coeff(0)  # nu_1 of the normalized series

            def diffs():
                for m in (2, 3):
                    k = 1 + p ** m
                    num = nu_k(h, k)
                    den = nu_k(uniformizer(p, M, num.precision + 4), k) ** n
                    yield f"m={m} ", num * den.inverse() - lead, m - 1
            return _least_valuation(diffs())

        yield "lambda-normalize", f"p={p}", bridge


COMMANDS = {
    "interp": cmd_interp_check,
    "gross-stark": cmd_gross_stark,
    "w-algebra": cmd_w_algebra,
    "hecke": cmd_hecke_check,
    "lambda": cmd_lambda_check,
}


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig.__init__.__kwdefaults__
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run batches of Gross-Stark verification checks.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--p", type=int, action="append", dest="primes",
                        help="prime(s) p; default "
                        f"{' '.join(map(str, defaults['primes']))} (repeatable)")
    parser.add_argument("--disc", type=int, action="append", default=[],
                        dest="discs", metavar="D",
                        help="negative fundamental discriminant (repeatable)")
    parser.add_argument("--prec", type=int, default=defaults["prec"],
                        metavar="N",
                        help="p-adic working precision (default %(default)s)")
    parser.add_argument("--qexp-terms", type=int,
                        default=defaults["qexp_terms"], metavar="NQ",
                        help="q-expansion length (default %(default)s)")
    parser.add_argument("--lambda-trunc", type=int,
                        default=defaults["lambda_trunc"], metavar="M",
                        help="Lambda-ring truncation floor, raised to "
                        "N - 4 for lambda (default %(default)s)")
    parser.add_argument("--trials", type=int, default=defaults["trials"],
                        metavar="K", help="random matrix trials for w-algebra "
                        "(default %(default)s)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON report to PATH")
    parser.add_argument("--cache", dest="cache_dir", metavar="DIR",
                        help="cache directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # an option left unset (None) takes RunConfig's default
    config = RunConfig(**{k: v for k, v in vars(args).items() if v is not None})
    try:
        config.validate()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if config.cache_dir:
        try:
            os.makedirs(config.cache_dir, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot use the cache directory: {exc}",
                  file=sys.stderr)
            return 2
        cache = BernoulliCache(
            os.path.join(config.cache_dir, "bernoulli.json"))
        set_shared_cache(cache)
    errors = []
    rb = ReportBuilder(config)
    try:
        for check_id, instance, check in COMMANDS[config.command](config):
            rb.run(check_id, instance, check)
        report = rb.report()
        if cache is not None:
            report["meta"] = {"bernoulli_computed": cache.computed_count}
    finally:
        if cache is not None:
            set_shared_cache(None)
            try:
                cache.save()
            except OSError as exc:
                errors.append(f"cannot save the cache: {exc}")
    for check in report["checks"]:
        val = check["discrepancy_valuation"]
        vs = "" if val is None else f" valuation={val}"
        detail = f" ({check['detail']})" if check.get("detail") else ""
        print(f"[{check['status']:>12}] {check['id']} {check['instance']}"
              f"{vs}{detail}")
    for warning in rb.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    counts = {}
    for check in report["checks"]:
        counts[check["status"]] = counts.get(check["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"{len(report['checks'])} checks: {summary}")
    if config.json_path:
        try:
            with open(config.json_path, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            errors.append(f"cannot write the report: {exc}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 2 if errors else rb.exit_code()
