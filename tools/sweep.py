"""Sweep `verify gross-stark`, `interp`, `hecke` and `lambda` over the small grid.

    python3 tools/sweep.py [--out SWEEP.json]

`gross-stark`, `interp` and `hecke` run at every negative fundamental
discriminant d with |d| < 3000 and every odd prime p <= 13 split in
Q(sqrt(d)), that is chi_d(p) = 1; `lambda` runs at every odd prime
p <= 101.  All calls are at N = 12, and `hecke` at its default
--qexp-terms 200, which covers both 4p and the tenth prime coprime to d
(at most 43 for |d| < 3000).  Each (command, p, d), or (lambda, p), is
one `verify` call, made in this process through grossstark.cli.main with
a JSON report of its own; a call that exits without a report, or with a
nonzero code, counts as a non-pass.  A seeded subsample of the (p, d)
instances also checks precision honesty: every digit that the N = 12
call of each public route on the gross-stark path declares must agree
with the same call at N + 10.

The output holds a status histogram per command, every check that is not
`pass` (none is dropped), the honesty results and the 20 slowest calls.
Exit code 0 when every check passes and every sampled value is honest, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from grossstark import cli  # noqa: E402
from grossstark.characters import (DirichletCharacter,  # noqa: E402
                                   is_fundamental_discriminant, kronecker)
from grossstark.lfunctions import (LSeriesInstance,  # noqa: E402
                                   analytic_invariant, kubota_leopoldt)
from grossstark.padic import is_prime  # noqa: E402
from grossstark.regulator import find_p_unit, gross_regulator_rank1  # noqa: E402

BOUND = 3000  # every d with |d| < BOUND
PRIMES = (3, 5, 7, 11, 13)
PREC = 12
COMMANDS = ("gross-stark", "interp", "hecke")
LAMBDA_PRIMES = tuple(p for p in range(3, 102, 2) if is_prime(p))
HONESTY_SAMPLE = 40
HONESTY_SEED = 20261018
SLOWEST = 20


def instances() -> list:
    """(p, d) for every split p <= 13 and fundamental d, -BOUND < d < 0."""
    return [(p, d) for d in range(-3, -BOUND, -1)
            if is_fundamental_discriminant(d)
            for p in PRIMES if kronecker(d, p) == 1]


def verify(command: str, p: int, d, report_path: str):
    """One in-process `verify` call, d None for lambda: (exit code, report
    or None, ms)."""
    argv = [command, "--p", str(p), *(() if d is None else ("--disc", str(d))),
            "--prec", str(PREC), "--json", report_path]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    ms = (time.perf_counter() - t0) * 1000
    if not os.path.exists(report_path):
        return rc, None, ms
    with open(report_path) as fh:
        return rc, json.load(fh), ms


def declared_values(p: int, d: int, N: int) -> dict:
    """The p-adic values the gross-stark and interp paths declare at N."""
    instance = LSeriesInstance(p, DirichletCharacter.quadratic(d), N)
    out = {"value_at_0": kubota_leopoldt(instance, 0),
           "l_an": analytic_invariant(instance)[0],
           "regulator": gross_regulator_rank1(find_p_unit(d, p, N=N))}
    for n in (-1, -2, -3):
        out[f"kubota_leopoldt({n})"] = kubota_leopoldt(instance, n)
    return out


def dishonest(p: int, d: int) -> list:
    """The names of the values at N = 12 that the N = 22 call contradicts."""
    lo, hi = declared_values(p, d, PREC), declared_values(p, d, PREC + 10)
    return [name for name, x in lo.items()
            if not x.same_to(hi[name], x.precision)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "SWEEP.json"),
                        help="where to write the results (default SWEEP.json)")
    args = parser.parse_args()
    grid = instances()
    calls = ([(command, p, d) for p, d in grid for command in COMMANDS]
             + [("lambda", p, None) for p in LAMBDA_PRIMES])
    status = {command: Counter() for command in (*COMMANDS, "lambda")}
    non_pass, timings = [], []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="grossstark-sweep-") as tmp:
        for i, (command, p, d) in enumerate(calls):
            report_path = os.path.join(tmp, f"{i}.json")
            rc, report, ms = verify(command, p, d, report_path)
            timings.append({"command": command, "p": p, "d": d,
                            "ms": round(ms, 1)})
            checks = report["checks"] if report else []
            for check in checks:
                status[command][check["status"]] += 1
                if check["status"] != "pass":
                    non_pass.append({"command": command, "exit": rc,
                                     **check})
            if rc and all(c["status"] == "pass" for c in checks):
                # no report, or a failing exit that no check explains
                status[command][f"exit {rc}"] += 1
                non_pass.append({"command": command, "p": p, "d": d,
                                 "exit": rc})
    sweep_s = time.perf_counter() - t0
    sample = sorted(random.Random(HONESTY_SEED).sample(
        grid, min(HONESTY_SAMPLE, len(grid))))
    t1 = time.perf_counter()
    honesty = [{"p": p, "d": d, "contradicted": dishonest(p, d)}
               for p, d in sample]
    honesty_s = time.perf_counter() - t1
    contradicted = [h for h in honesty if h["contradicted"]]
    result = {
        "command": "python3 tools/sweep.py",
        "domain": {"d": f"negative fundamental, |d| < {BOUND}",
                   "p": f"split in Q(sqrt(d)), p in {list(PRIMES)}",
                   "lambda_p": f"every odd prime p <= {LAMBDA_PRIMES[-1]}",
                   "prec": PREC},
        "host": {"machine": platform.machine(),
                 "python": platform.python_version()},
        "instances": len(grid),
        "lambda_instances": len(LAMBDA_PRIMES),
        "seconds": round(sweep_s, 1),
        "status": {command: dict(sorted(counts.items()))
                   for command, counts in status.items()},
        "non_pass": non_pass,
        "honesty": {"seed": HONESTY_SEED, "sample": len(sample),
                    "prec": [PREC, PREC + 10],
                    "seconds": round(honesty_s, 1),
                    "contradicted": contradicted},
        "slowest": sorted(timings, key=lambda t: -t["ms"])[:SLOWEST],
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"{len(grid)} (p, d) instances and {len(LAMBDA_PRIMES)} lambda "
          f"primes in {sweep_s:.0f} s: "
          + "; ".join(f"{c} {dict(s)}" for c, s in status.items())
          + f"; honesty {len(sample) - len(contradicted)}/{len(sample)}")
    return 1 if non_pass or contradicted else 0


if __name__ == "__main__":
    sys.exit(main())
