"""Self-test of the benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload for one second (one round) with --trace 0 and
--trace 1 and checks that the metric names printed are exactly those in
BENCHMARK.json, each with a unit, and that every run is correct.  Then it
runs the algebra workload against perturbed reference reports and checks
that error_frac > 0.  Exits 1 on the first mismatch.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

SEED = 0


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if set(w["name"] for w in spec["workloads"]) != set(workloads.WORKLOADS):
        fail("workload names differ from BENCHMARK.json")
    for workload in sorted(workloads.WORKLOADS):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", trace],
                cwd=run.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}: "
                     f"{proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want[trace]:
                fail(f"{workload} trace {trace}: names or units differ: "
                     f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not all(got.values()):
                fail(f"{workload} trace {trace}: a metric has no unit")
            if not result["correct"] or result["failed"]:
                fail(f"{workload} trace {trace}: run not correct:\n"
                     + proc.stdout[-1500:])
            print(f"ok: {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} calls")

    refs = run.load_refs("algebra")
    perturbed = {key: {**report, "warnings": ["perturbed"]}
                 for key, report in refs.items()}
    os.environ.pop(run.CACHE_ENV, None)
    sys.path.insert(0, str(run.SRC))
    workdir = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, notes, _ = run.run("algebra", SEED, 1, 0, perturbed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["failed"] or result["correct"]:
        fail("a perturbed reference report did not make error_frac > 0")
    print(f"ok: perturbed references give error_frac {notes['error_frac']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
