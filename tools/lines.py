"""Line-reach gate: every executable src/ line runs under tier-1 or is allowed.

    python3 tools/lines.py

Runs tier-1 in this interpreter under a stdlib `sys.settrace` line counter
(no coverage package is needed) and prints each executable line of
src/grossstark that never ran, as file:line, the function it is in, its
text and, when it is on ALLOWED below, the reason it may stay unrun.  An
ALLOWED entry names a file, a function (its qualified name, "<module>" at
top level) and the stripped text of a line, and covers every unrun line
that matches all three; an entry with no text covers the whole function.
A line counts as executable when the compiled module has bytecode for it;
a function's `def` line runs when the module is imported.  A line that
runs only in a child interpreter, such as `__main__.py`, is not seen and
counts as unrun.

Exit codes: 0 when every unrun line is allowed and every ALLOWED entry
still matches an unrun line; 1 when an unrun line is not allowed or an
entry is stale (its line now runs or is gone); 2 when tier-1 fails.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grossstark"

GUARD = "input guard: rejects a value outside the function's domain"
CHILD = "child interpreter: runs only as python3 -m grossstark"

# (file under src/grossstark, function, stripped line text or None for every
# line of the function and the functions inside it, reason)
ALLOWED = [
    ("qexp.py", "hida_surrogate", "raise DegenerateInstanceError(", GUARD),
    ("qexp.py", "hida_surrogate",
     '"weight-%d Eisenstein constant term vanishes; surrogate undefined" % k)', GUARD),
    ("qexp.py", "build_Fk", "raise DegenerateInstanceError(", GUARD),
    ("qexp.py", "build_Fk",
     '"L_p(chi^{-1} omega, 1-k) vanishes to precision; "', GUARD),
    ("__main__.py", "<module>", None, CHILD),
]


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the innermost function} for one source file."""
    owner = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        name = getattr(code, "co_qualname", code.co_name)  # 3.11 and later
        for _, _, line in code.co_lines():
            if line and (name == "<module>" or line != code.co_firstlineno):
                owner[line] = name
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def run_tier1() -> tuple[int, dict]:
    """Run tier-1 here under the line counter; (exit code, {file: lines})."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-x", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), files


def main() -> int:
    code, ran = run_tier1()
    if code != 0:
        print(f"tier-1 fails (pytest exit {code})", file=sys.stderr)
        return 2
    used, bad = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        owner = executable_lines(path)
        for n in sorted(set(owner) - ran[str(path)]):
            fn, text = owner[n], lines[n - 1].strip()
            entry = next((e for e in ALLOWED if e[0] == path.name
                          and (e[1] == fn or e[2] is None
                               and fn.startswith(e[1] + ".<locals>."))
                          and e[2] in (None, text)), None)
            if entry is None:
                bad += 1
            else:
                used.add(entry)
            print(f"{path.name}:{n}  {fn}  {text}"
                  f"  [{entry[3] if entry else 'NOT ALLOWED'}]")
    stale = [e for e in ALLOWED if e not in used]
    for f, fn, text, _ in stale:
        print(f"stale allow-list entry: {f}  {fn}  {text}")
    print(f"{bad} unrun lines not allowed, {len(stale)} stale entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
