"""Benchmark for the `verify` entry point, grossstark.cli.main(argv).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gs-grid --seed 1 --seconds 25 --trace 0

Workloads are defined in workloads.py: gs-grid, cold-start and algebra.
The load is a closed loop with one client: one call at a time.  With
--trace 0 the run is timed and prints the end-to-end metrics; with
--trace 1 it runs each call untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  Every report is compared with
the committed reference in perfbench/refs/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
WORK = ROOT / ".perfbench_work"
CACHE_ENV = "GROSSSTARK_CACHE"
CALL_TIMEOUT_S = 150
SETUP_SAMPLES = 7

END_TO_END = (
    ("verify_ms_p50", "ms"),
    ("verify_ms_tail", "ms"),
    ("checks_per_s", "checks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span name, figures) for the per-function per-layer metrics.
FUNCTION_METRICS = (
    ("characters.bernoulli_number", ("calls", "s")),
    ("characters.gen_bernoulli", ("calls", "s")),
    ("lfunctions.analytic_invariant", ("calls", "s")),
    ("lfunctions.kubota_leopoldt", ("calls", "s")),
    ("lfunctions.lp_derivative_at_0", ("s",)),
    ("lfunctions.order_probe", ("s",)),
    ("lfunctions.lstar", ("s",)),
    ("padic.plog", ("calls", "s")),
    ("padic.angle_bracket", ("calls", "s")),
    ("padic.teichmuller", ("calls",)),
    ("padic.hensel_sqrt", ("s",)),
    ("padic.cornacchia", ("calls", "s")),
    ("regulator.find_p_unit", ("calls", "s")),
    ("regulator.gross_regulator_rank1", ("s",)),
    ("qexp.eisenstein", ("calls", "s")),
    ("qexp.hecke_T", ("s",)),
    ("qexp.hecke_U", ("s",)),
    ("qexp.verify_up_relation", ("s",)),
    ("lambdaring.epsilon_char", ("calls", "s")),
    ("lambdaring.nu_k", ("calls", "s")),
    ("lambdaring.pi_normalize", ("s",)),
    ("walgebra.build_W", ("calls", "s")),
    ("walgebra.det", ("calls", "s")),
    ("walgebra.case1_det_identity", ("s",)),
    ("walgebra.case2_det_identity", ("s",)),
    ("walgebra.case3_det_identity", ("s",)),
    ("cli.main", ("calls",)),
)
UNITS = {"calls": "count", "s": "s"}


def per_layer_names():
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = [(f"{fn}.{fig}", UNITS[fig])
           for fn, figs in FUNCTION_METRICS for fig in figs]
    out += [("characters.bernoulli_computed", "count"),
            ("characters.bernoulli_hit_ratio", "ratio"),
            ("characters.cache_load_s", "s"),
            ("characters.cache_save_s", "s"),
            ("padic.cornacchia.large_calls", "count")]
    for layer in tracer.LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.self_share", "ratio"),
                (f"{layer}.raised", "count")]
    out.append(("trace.overhead_frac", "ratio"))
    return out


# The layer each workload's prediction says holds the largest self time.
PREDICTED_TOP_LAYER = {"gs-grid": "lfunctions", "cold-start": "characters",
                       "algebra": "walgebra"}


# -- calling the program ---------------------------------------------------


class Outcome:
    """What one call did: time, exit code, escaped exception, report."""

    def __init__(self, argv, ms, rc, error, report, rss_kb=0):
        self.argv = argv
        self.ms = ms
        self.rc = rc
        self.error = error
        self.report = report
        self.rss_kb = rss_kb
        self.problems = []


def _read_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def child_env():
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _append_spans(dest, spans):
    """Append one call's spans to dest, shifting parent indices."""
    base = len(dest)
    for span in spans:
        if span[tracer.PARENT] >= 0:
            span[tracer.PARENT] += base
        dest.append(span)


class InProcessRunner:
    """Calls cli.main in this process; an optional shared disk cache."""

    def __init__(self, workdir, cache_dir=None):
        import grossstark.cli as cli
        self.cli = cli
        self.workdir = workdir
        self.cache_dir = cache_dir

    def call(self, argv, spans=None):
        """Run one call; with a spans list, trace it and append its spans."""
        report_path = self.workdir / "report.json"
        full = list(argv) + ["--json", str(report_path)]
        if self.cache_dir:
            full += ["--cache", str(self.cache_dir)]
        rec = None
        if spans is not None:
            rec = tracer.Tracer()
            rec.install()
        rc, error = None, None
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = self.cli.main(full)
        except Exception:
            error = traceback.format_exc(limit=3)
        ms = (time.perf_counter() - t0) * 1000
        if rec is not None:
            rec.uninstall()
            _append_spans(spans, rec.spans)
        report = _read_report(report_path) if rc is not None else None
        with contextlib.suppress(FileNotFoundError):
            report_path.unlink()
        return Outcome(argv, ms, rc, error, report)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child(argv, full_argv, spans_path=None):
    """Run child.py on full_argv in a fresh interpreter; no report read."""
    cmd = [sys.executable, str(BENCH / "child.py")]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--", *full_argv]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(argv, 0.0, None, f"timed out after {CALL_TIMEOUT_S} s",
                       None)
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Outcome(argv, 0.0, None, f"child exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}", None)
    return Outcome(argv, info["ms"], info["rc"], info["error"], None,
                   info["rss_kb"])


class FreshProcessRunner:
    """Runs every call in a fresh interpreter with an empty cache directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.max_rss_kb = 0
        self.count = 0

    def call(self, argv, spans=None):
        """Run one call; with a spans list, trace it and append its spans."""
        self.count += 1
        cache = self.workdir / f"cache-{self.count}"
        report_path = self.workdir / f"report-{self.count}.json"
        spans_path = None
        if spans is not None:
            spans_path = self.workdir / f"spans-{self.count}.json"
        outcome = run_child(
            argv, [*argv, "--cache", str(cache), "--json", str(report_path)],
            spans_path)
        outcome.report = _read_report(report_path)
        self.max_rss_kb = max(self.max_rss_kb, outcome.rss_kb)
        if spans_path is not None and spans_path.exists():
            with open(spans_path) as fh:
                _append_spans(spans, json.load(fh))
            spans_path.unlink()
        shutil.rmtree(cache, ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            report_path.unlink()
        return outcome

    def peak_rss_kb(self):
        return self.max_rss_kb


# -- correctness -----------------------------------------------------------


def ref_key(argv):
    return " ".join(argv)


def strip_report(report):
    """The report without its timing fields and cache directory."""
    out = json.loads(json.dumps(report))
    for check in out.get("checks", []):
        check.pop("ms", None)
    out.get("config", {}).pop("cache_dir", None)
    return out


def load_refs(workload):
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def check(workload, outcome, refs):
    """Record every reason the call counts as failed on outcome.problems.

    With refs None the report is not compared with a reference.
    """
    problems = outcome.problems
    if outcome.error:
        problems.append(f"exception escaped main: {outcome.error}")
    if outcome.rc != 0:
        problems.append(f"exit code {outcome.rc}")
    report = outcome.report
    if report is None:
        problems.append("no JSON report")
        return problems
    for rec in report.get("checks", []):
        if rec.get("status") != "pass":
            problems.append(f"{rec.get('id')} {rec.get('instance')}: "
                            f"status {rec.get('status')}")
    if refs is not None:
        ref = refs.get(ref_key(outcome.argv))
        if ref is None:
            problems.append("no reference report for this call")
        elif strip_report(report) != ref:
            problems.append("report differs from its reference")
    computed = report.get("meta", {}).get("bernoulli_computed")
    if workload == "cold-start" and not (computed and computed > 0):
        problems.append(f"cold call computed {computed} Bernoulli numbers")
    if workload == "gs-grid" and computed != 0:
        problems.append(f"warm call computed {computed} Bernoulli numbers")
    return problems


# -- measuring -------------------------------------------------------------


def measure_setup_s(samples=SETUP_SAMPLES):
    """Median time from spawning an interpreter until grossstark.cli imports.

    One unrecorded spawn comes first, so bytecode and file caches are warm.
    """
    code = "import grossstark.cli; print('ready', flush=True)"
    env = child_env()
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=CALL_TIMEOUT_S) != 0 or line.strip() != b"ready":
                raise RuntimeError("importing grossstark.cli failed")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_rounds(runner, workload, stream, rounds, refs):
    """Run `rounds` rounds of calls; return outcomes and wall time."""
    outcomes = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        for argv in next(stream):
            outcome = runner.call(list(argv))
            check(workload, outcome, refs)
            outcomes.append(outcome)
    return outcomes, time.perf_counter() - t0


def round_count(workload, seconds):
    return max(1, round(seconds / workloads.ROUND_SECONDS[workload]))


def tail(samples):
    """Highest percentile with at least ten samples above it, as (value, pct).

    With ten samples or fewer, no such percentile exists; the maximum is
    returned with pct 100.
    """
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def make_runner(workload, workdir):
    if workload in workloads.FRESH_PROCESS:
        return FreshProcessRunner(workdir)
    cache_dir = None
    if workload in workloads.WARM_CACHE_FILL:
        cache_dir = workdir / "cache"
        fill = workloads.WARM_CACHE_FILL[workload]
        outcome = run_child(fill, [*fill, "--cache", str(cache_dir)])
        if outcome.rc != 0:
            raise RuntimeError(f"filling the Bernoulli cache failed: "
                               f"{outcome.error or outcome.rc}")
    runner = InProcessRunner(workdir, cache_dir)
    for argv in workloads.WARM_UP.get(workload, ()):
        runner.call(list(argv))
    return runner


def end_to_end(outcomes, wall, runner, setup_s):
    samples = [o.ms for o in outcomes]
    tail_ms, tail_pct = tail(samples)
    checks = sum(len(o.report.get("checks", [])) for o in outcomes if o.report)
    metrics = {
        "verify_ms_p50": statistics.median(samples),
        "verify_ms_tail": tail_ms,
        "checks_per_s": checks / wall,
        "setup_s": setup_s,
        "peak_rss_mb": runner.peak_rss_kb() / 1024,
    }
    notes = {"verify_ms_tail": f"p{tail_pct:.1f} of n={len(samples)}",
             "checks_per_s": f"{checks} checks in {wall:.2f} s",
             "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters"}
    return metrics, notes


def layer_metrics(spans, traced, untraced):
    agg = tracer.layer_metrics(spans)
    fns = agg["functions"]

    def fig(name, what):
        return fns.get(name, {}).get(what, 0)

    values = {f"{fn}.{f}": fig(fn, f)
              for fn, figs in FUNCTION_METRICS for f in figs}
    computed = sum(o.report.get("meta", {}).get("bernoulli_computed", 0)
                   for o in traced if o.report)
    calls = fig("characters.bernoulli_number", "calls")
    values["characters.bernoulli_computed"] = computed
    values["characters.bernoulli_hit_ratio"] = (
        1 - computed / calls if calls else 1.0)
    values["characters.cache_load_s"] = fig("characters.cache_load", "s")
    values["characters.cache_save_s"] = fig("characters.cache_save", "s")
    values["padic.cornacchia.large_calls"] = fig("padic.cornacchia", "tagged")
    total_self = sum(agg["self_s"].values()) or 1.0
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = agg["self_s"][layer]
        values[f"{layer}.self_share"] = agg["self_s"][layer] / total_self
        values[f"{layer}.raised"] = agg["raised"][layer]
    untraced_ms = sum(o.ms for o in untraced)
    values["trace.overhead_frac"] = (
        sum(o.ms for o in traced) / untraced_ms - 1 if untraced_ms else 0.0)
    return values


def run_record(workload, seed, seconds, trace):
    import sympy
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_sha": sha,
            "python": sys.version.split()[0], "sympy": sympy.__version__,
            "nproc": os.cpu_count()}


def run(workload, seed, seconds, trace, refs, workdir):
    """Run one benchmark; return (result, notes, record)."""
    stream = workloads.rounds(workload, seed)
    notes = {}
    if trace:
        runner = make_runner(workload, workdir)
        spans, untraced, traced = [], [], []
        pairs = ((None, untraced), (spans, traced))
        calls = [argv for _ in range(round_count(workload, seconds / 2))
                 for argv in next(stream)]
        for i, argv in enumerate(calls):
            # alternate which side runs first, so warm-up favours neither
            for sink, dest in (pairs if i % 2 == 0 else pairs[::-1]):
                outcome = runner.call(list(argv), sink)
                check(workload, outcome, refs)
                dest.append(outcome)
        outcomes = untraced + traced
        values = layer_metrics(spans, traced, untraced)
        units = dict(per_layer_names())
        with open(workdir.parent / f"spans-{workload}.json", "w") as fh:
            json.dump(spans, fh)
        top = max(tracer.LAYERS, key=lambda layer: values[f"{layer}.self_s"])
        want = PREDICTED_TOP_LAYER[workload]
        notes["prediction"] = (
            f"largest self time: {top} ({values[f'{top}.self_share']:.1%}); "
            f"predicted {want}: "
            + ("holds" if top == want else "does not hold"))
    else:
        setup_s = measure_setup_s()
        runner = make_runner(workload, workdir)
        outcomes, wall = run_rounds(runner, workload, stream,
                                    round_count(workload, seconds), refs)
        values, notes = end_to_end(outcomes, wall, runner, setup_s)
        units = dict(END_TO_END)
    notes["samples"] = [[ref_key(o.argv), o.ms] for o in outcomes]
    failed = [o for o in outcomes if o.problems]
    notes["error_frac"] = f"{len(failed) / len(outcomes):g} " \
                          f"({len(failed)}/{len(outcomes)} calls failed)"
    for o in failed[:5]:
        notes.setdefault("failures", []).append(
            f"{ref_key(o.argv)}: {'; '.join(o.problems)}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, notes, run_record(workload, seed, seconds, trace)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "grossstark" / "cli.py").is_file():
        print(f"error: no grossstark sources under {SRC}", file=sys.stderr)
        return 2
    if not (REFS / f"{args.workload}.json").is_file():
        print(f"error: no reference reports for {args.workload}",
              file=sys.stderr)
        return 2
    os.environ.pop(CACHE_ENV, None)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, notes, record = run(args.workload, args.seed, args.seconds,
                                    args.trace, load_refs(args.workload),
                                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"record": record, "notes": notes, "result": result}, fh,
                  indent=1)
    print("run " + json.dumps(record))
    for name, metric in result["metrics"].items():
        note = notes.get(name)
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']:<9}"
              + (f"  ({note})" if note else ""))
    for key in ("error_frac", "prediction"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    for line in notes.get("failures", []):
        print(f"  failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
