"""Batch verification driver with machine-readable JSON reports.

Subcommands mirror the library's check families:

    verify interp        interpolation of the p-adic L-function
    verify gross-stark   analytic L-invariant against the p-unit regulator
    verify w-algebra     algebra structure and determinant identities
    verify hecke         U_p relations and the Eisenstein eigenform law
    verify lambda        weight-specialization bridge nu_k(eps(x)) = <x>^{k-1}

Exit codes: 0 when every check passes (inconclusive counts as non-failure),
1 when any check fails or errors, 2 for usage/configuration problems.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .characters import (BernoulliCache, DirichletCharacter,
                         is_fundamental_discriminant, set_shared_cache,
                         shared_cache)
from .errors import (ConsistencyError, ConstructionError,
                     DegenerateInstanceError, DomainError, PrecisionError)
from .lambdaring import epsilon_char, nu_k, pi_normalize, topological_generator
from .lfunctions import (LSeriesInstance, analytic_invariant, kubota_leopoldt,
                         lstar)
from .padic import PadicNumber, angle_bracket, is_prime, is_zero, plog
from .qexp import eisenstein, hecke_T, verify_up_relation
from .regulator import find_p_unit, gross_regulator_rank1
from .walgebra import (Laurent, build_W, case1_det_identity,
                       case2_det_identity, case3_det_identity)

CACHE_ENV = "GROSSSTARK_CACHE"
DEFAULT_PRIMES = (3, 5, 7)
CONCLUSIVE_PRECISION = 6


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one verification run."""

    command: str
    primes: tuple = DEFAULT_PRIMES
    discs: tuple = ()
    prec: int = 12
    qexp_terms: int = 200
    lambda_trunc: int = 16
    trials: int = 100
    json_path: str | None = None
    cache_dir: str | None = None

    def validate(self):
        if self.prec <= 0:
            raise UsageError(f"precision must be positive, got {self.prec}")
        if self.qexp_terms < 4 * max(self.primes):
            raise UsageError(
                f"qexp-terms must be at least 4p = {4 * max(self.primes)}")
        if self.lambda_trunc < 1:
            raise UsageError("lambda-trunc must be at least 1")
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        for p in self.primes:
            if p < 3 or not is_prime(p):
                raise UsageError(f"p must be an odd prime, got {p}")
        for d in self.discs:
            if d >= 0 or not is_fundamental_discriminant(d):
                raise UsageError(
                    f"disc {d} is not a negative fundamental discriminant")
        if self.command in ("interp", "gross-stark", "hecke") and not self.discs:
            raise UsageError(f"'{self.command}' needs at least one --disc")

    @property
    def conclusive(self) -> bool:
        return self.prec >= CONCLUSIVE_PRECISION

    def echo(self) -> dict:
        return {
            "command": self.command,
            "primes": list(self.primes),
            "discs": list(self.discs),
            "prec": self.prec,
            "qexp_terms": self.qexp_terms,
            "lambda_trunc": self.lambda_trunc,
            "trials": self.trials,
            "cache_dir": self.cache_dir,
        }


class UsageError(Exception):
    pass


class ReportBuilder:
    """Collects per-check records; computes the aggregate exit code."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.checks = []
        self.warnings = []

    def record(self, check_id, instance, status, discrepancy_valuation=None,
               ms=None, detail=None, error=None):
        rec = {
            "id": check_id,
            "instance": instance,
            "status": status,
            "discrepancy_valuation": discrepancy_valuation,
            "ms": ms,
        }
        if detail is not None:
            rec["detail"] = detail
        if error is not None:
            rec["error"] = error
        self.checks.append(rec)
        return rec

    def run(self, check_id, instance, fn):
        """Time fn() -> (status, valuation, detail) and append the record."""
        t0 = time.perf_counter()
        error = None
        try:
            status, val, detail = fn()
        except (DomainError, DegenerateInstanceError,
                ConstructionError) as exc:
            status, val, detail = "error", None, str(exc)
            error = type(exc).__name__
        except ConsistencyError as exc:
            status, val, detail = "fail", None, str(exc)
        except PrecisionError as exc:
            status, val, detail = "inconclusive", None, str(exc)
        ms = round((time.perf_counter() - t0) * 1000, 3)
        if status in ("pass", "fail") and not self.config.conclusive:
            if status == "fail":
                detail = (detail or "") + " [low precision]"
            status = "inconclusive"
            self.warnings.append(
                f"{check_id} {instance}: precision {self.config.prec} < "
                f"{CONCLUSIVE_PRECISION}, result inconclusive")
        return self.record(check_id, instance, status, val, ms, detail, error)

    def report(self) -> dict:
        meta = {}
        cache = shared_cache()
        if cache is not None:
            meta["bernoulli_computed"] = cache.computed_count
        return {
            "version": __version__,
            "config": self.config.echo(),
            "checks": self.checks,
            "warnings": self.warnings,
            **({"meta": meta} if meta else {}),
        }

    def exit_code(self) -> int:
        if any(c["status"] in ("fail", "error") for c in self.checks):
            return 1
        return 0


def _valuation(x: PadicNumber):
    v = x.valuation
    return None if v == math.inf else v


# -- subcommands -----------------------------------------------------------


def cmd_interp_check(config: RunConfig) -> ReportBuilder:
    rb = ReportBuilder(config)
    for p in config.primes:
        for d in config.discs:
            chi = DirichletCharacter.quadratic(d)
            for n in (0, -1, -2, -3):
                inst = f"p={p} d={d} n={n}"

                def check(p=p, chi=chi, n=n):
                    instance = LSeriesInstance(p, chi, config.prec)
                    series = kubota_leopoldt(instance, n)
                    exact = lstar(chi.teichmuller_twist(n, p), n, p,
                                  prec=series.precision + 4)
                    diff = series - exact
                    target = config.prec - 2
                    if is_zero(diff):
                        return "pass", None, None
                    val = diff.valuation
                    if val >= target:
                        return "pass", val, None
                    return "fail", val, f"discrepancy valuation {val} < {target}"

                rb.run("interp", inst, check)
    return rb


def cmd_gross_stark(config: RunConfig) -> ReportBuilder:
    rb = ReportBuilder(config)
    for p in config.primes:
        for d in config.discs:
            inst = f"p={p} d={d}"

            def check(p=p, d=d):
                chi = DirichletCharacter.quadratic(d)
                if chi(p) != 1:
                    raise DomainError(
                        f"p = {p} is not split in Q(sqrt({d})): chi({p}) = {chi(p)}")
                # the arithmetic side fails in milliseconds, the series engine
                # takes seconds: search first
                cert = find_p_unit(d, p, N=config.prec)
                instance = LSeriesInstance(p, chi, config.prec)
                lan = analytic_invariant(instance).l_an
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

            rb.run("gross-stark", inst, check)
    return rb


def _random_fraction_matrix(rng, r):
    from fractions import Fraction
    return [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for _ in range(r)] for _ in range(r)]


def cmd_w_algebra(config: RunConfig) -> ReportBuilder:
    import random
    from fractions import Fraction
    rb = ReportBuilder(config)
    rng = random.Random(20260817)
    Lc, Wc = Fraction(5, 3), Fraction(2, 7)
    algebras = {}

    def algebra(case, r, mode):
        """The (case, r, scalar mode) algebra, built on first use in this run."""
        key = (case, r, mode)
        if key not in algebras:
            if mode == "concrete":
                L, W = Lc, Wc
            else:
                L, W = Laurent.var_L(), Laurent.var_W()
            if case == 1:
                algebras[key] = build_W(1, r, r_an=r, L=L)
            elif case == 2:
                algebras[key] = build_W(2, r, r_an=r, L=L, W=W)
            else:
                algebras[key] = build_W(3, r, s=r + 1, t=r, L=L, W=W)
        return algebras[key]

    for r in (1, 2, 3):
        def dims(r=r):
            a1 = algebra(1, r, "concrete")
            a2 = algebra(2, r, "concrete")
            ok = (a1.dimension == 2 ** r + r - 1
                  and a2.dimension == 2 ** r + 2 * r - 2)
            return ("pass" if ok else "fail"), None, \
                f"dims {a1.dimension}, {a2.dimension}"
        rb.run("walg-structure", f"r={r}", dims)

        for mode in ("concrete", "formal"):
            def idents(r=r, mode=mode):
                a1, a2, a3 = (algebra(case, r, mode) for case in (1, 2, 3))
                checks = ((case1_det_identity, a1), (case2_det_identity, a2),
                          (case3_det_identity, a3))
                for _ in range(config.trials):
                    o = _random_fraction_matrix(rng, r)
                    lm = _random_fraction_matrix(rng, r)
                    for fn, alg in checks:
                        if fn(o, lm, alg).nonzero():
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
            rb.run("walg-det", f"r={r} {mode}", idents)
    return rb


def cmd_hecke_check(config: RunConfig) -> ReportBuilder:
    rb = ReportBuilder(config)
    for p in config.primes:
        for d in config.discs:
            chi = DirichletCharacter.quadratic(d)

            def up_check(p=p, chi=chi):
                rep = verify_up_relation(chi, p, n_q=config.qexp_terms,
                                         prec=config.prec)
                if rep["pass"]:
                    return "pass", None, \
                        f"{rep['checked_coefficients']} coefficients"
                return "fail", None, f"first discrepancy {rep['first_discrepancy']}"

            rb.run("hecke-up", f"p={p} d={d}", up_check)

    for d in config.discs:
        chi = DirichletCharacter.quadratic(d)

        def eigen(chi=chi):
            form = eisenstein(1, chi, n_terms=config.qexp_terms)
            ell, count = 2, 0
            while count < 10:
                if chi.modulus % ell:
                    lhs = hecke_T(ell, form)
                    rhs = form.truncate(lhs.reliable_to) * (1 + chi(ell))
                    for n in range(lhs.reliable_to + 1):
                        if lhs.coeff(n) != rhs.coeff(n):
                            return "fail", None, f"T_{ell} at q^{n}"
                    count += 1
                ell += 1
                while not is_prime(ell):
                    ell += 1
            return "pass", None, "10 primes"

        rb.run("hecke-eigen", f"d={d}", eigen)
    return rb


def cmd_lambda_check(config: RunConfig) -> ReportBuilder:
    rb = ReportBuilder(config)
    N, M = config.prec, config.lambda_trunc
    for p in config.primes:
        units = [x for x in range(2, 40) if x % p][:10]
        for x in units:
            inst = f"p={p} x={x}"

            def check(p=p, x=x):
                h = epsilon_char(x, p, M=M, N=N)
                worst = None
                for k in (1, 2, 3, 5, 1 + (p - 1)):
                    got = nu_k(h, k)
                    want = angle_bracket(x, p, got.precision + 2) ** (k - 1)
                    diff = got - want
                    if not diff.is_zero_to_precision():
                        v = diff.valuation
                        worst = v if worst is None else min(worst, v)
                        if v < N - 3:
                            return "fail", v, f"k={k} valuation {v} < {N - 3}"
                return "pass", worst, None

            rb.run("lambda-nu", inst, check)

        def bridge(p=p):
            x = units[0]
            h0 = epsilon_char(x, p, M=M, N=N)
            h = h0 - h0.coeff(0)  # vanishes at T = 0
            n, hp = pi_normalize(h)
            lead = hp.coeff(0)  # nu_1 of the normalized series
            u = topological_generator(p)
            worst = None
            for m in (2, 3):
                k = 1 + p ** m
                num = nu_k(h, k)
                den = nu_k(_pi_element(p, M, num.precision + 4), k) ** n
                fd = num * den.inverse()
                diff = fd - lead
                if not diff.is_zero_to_precision():
                    v = diff.valuation
                    worst = v if worst is None else min(worst, v)
                    if v < m - 1:
                        return "fail", v, f"m={m} valuation {v} < {m - 1}"
            return "pass", worst, None

        rb.run("lambda-normalize", f"p={p}", bridge)
    return rb


def _pi_element(p, M, N):
    """The uniformizer pi = T / plog(u) as a LambdaElement."""
    from .lambdaring import LambdaElement
    u = topological_generator(p)
    inv_log = plog(PadicNumber.from_exact(p, u, N + 4)).inverse()
    return LambdaElement(p, [PadicNumber.zero(p), inv_log], M)


COMMANDS = {
    "interp": cmd_interp_check,
    "gross-stark": cmd_gross_stark,
    "w-algebra": cmd_w_algebra,
    "hecke": cmd_hecke_check,
    "lambda": cmd_lambda_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run batches of Gross-Stark verification checks.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--p", type=int, action="append", dest="primes",
                        help="prime(s) p; default 3 5 7 (repeatable)")
    parser.add_argument("--disc", type=int, action="append", default=[],
                        dest="discs", metavar="D",
                        help="negative fundamental discriminant (repeatable)")
    parser.add_argument("--prec", type=int, default=12, metavar="N",
                        help="p-adic working precision (default 12)")
    parser.add_argument("--qexp-terms", type=int, default=200, metavar="NQ",
                        help="q-expansion length (default 200)")
    parser.add_argument("--lambda-trunc", type=int, default=16, metavar="M",
                        help="Lambda-ring truncation order (default 16)")
    parser.add_argument("--trials", type=int, default=100, metavar="K",
                        help="random matrix trials for w-algebra (default 100)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON report to PATH")
    parser.add_argument("--cache", dest="cache_dir", metavar="DIR",
                        help=f"cache directory (or set ${CACHE_ENV})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    config = RunConfig(
        command=args.command,
        primes=tuple(args.primes) if args.primes else DEFAULT_PRIMES,
        discs=tuple(args.discs),
        prec=args.prec,
        qexp_terms=args.qexp_terms,
        lambda_trunc=args.lambda_trunc,
        trials=args.trials,
        json_path=args.json_path,
        cache_dir=cache_dir,
    )
    try:
        config.validate()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache = BernoulliCache(os.path.join(cache_dir, "bernoulli.json"))
        set_shared_cache(cache)
    try:
        rb = COMMANDS[config.command](config)
        report = rb.report()
    finally:
        if cache is not None:
            cache.save()
            set_shared_cache(None)
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
        with open(config.json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return rb.exit_code()
