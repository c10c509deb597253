"""Regenerate the reference reports in perfbench/refs/.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every call a workload can draw, in the same way the benchmark runs it
(warm cache, fresh interpreter, or plain in-process), and stores each JSON
report without its `ms` fields and `config.cache_dir`, keyed by the call's
argv.  A call that fails any other check is reported and not stored, and
the script exits 1.  Run it only when a change is meant to alter reports.
"""

import json
import os
import shutil
import sys

import run
import workloads


def make(workload):
    workdir = run.WORK / f"refs-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs, bad = {}, 0
    try:
        runner = run.make_runner(workload, workdir)
        for argv in workloads.pool(workload):
            outcome = runner.call(list(argv))
            problems = run.check(workload, outcome, None)
            key = run.ref_key(argv)
            if problems:
                bad += 1
                print(f"{workload}: {key}: {'; '.join(problems)}")
                continue
            refs[key] = run.strip_report(outcome.report)
            print(f"{workload}: {key}: {outcome.ms:.0f} ms", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFS.mkdir(exist_ok=True)
    with open(run.REFS / f"{workload}.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return bad


def main(names):
    if not (run.SRC / "grossstark" / "cli.py").is_file():
        print(f"error: no grossstark sources under {run.SRC}", file=sys.stderr)
        return 2
    os.environ.pop(run.CACHE_ENV, None)
    sys.path.insert(0, str(run.SRC))
    bad = sum(make(name) for name in names or sorted(workloads.WORKLOADS))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
