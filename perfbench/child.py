"""Run one `verify` call in this fresh interpreter and report how it went.

Usage: python3 child.py [--spans PATH] -- ARGV...

Imports grossstark.cli (found through PYTHONPATH), times `cli.main(ARGV)`
with its console output captured, and prints one JSON line: the call's
wall time in ms, its exit code, any exception that escaped it, and this
process's peak RSS.  With --spans, the call runs traced and the spans are
written to PATH as JSON.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import grossstark.cli as cli

from tracer import Tracer


def main(args):
    spans_path = None
    if args[0] == "--spans":
        spans_path, args = args[1], args[2:]
    argv = args[1:] if args[0] == "--" else args
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        error = traceback.format_exc(limit=3)
    ms = (time.perf_counter() - t0) * 1000
    if tracer is not None:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ms": ms, "rc": rc, "error": error, "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
