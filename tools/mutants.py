"""Mutation smoke: every listed one-line source mutant must fail tier-1.

    python3 tools/mutants.py

The tree (src/, tests/, pyproject.toml, README.md) is copied to a temporary
directory; the working tree is never written.  Before any test runs, every
mutant's original line must occur exactly once in its file and differ from
the mutant line, which keeps its indentation (a mutant that only breaks the
syntax would be killed by the import, not by a test).  Tier-1 must then pass on the unmutated copy, in pytest's
default order.  Then, for each mutant, the mutant line replaces the original,
tier-1 runs on the copy with `-x`, and the file is restored.  A mutant of
<stem>.py runs tests/test_<stem>.py first, where there is one, and then every
other test file, so most mutants stop at their own module's tests.  A mutant
survives when every test file still passes under it.

Exit codes: 0 when every mutant is killed, 1 when any survives, 2 when a
mutant is stale (its original line does not occur exactly once, equals the
mutant or is indented differently) or the unmutated copy fails tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (file under src/grossstark, original line, mutant line, what the mutant does)
MUTANTS = [
    ("lfunctions.py",
     "            sigmas.append((int(s), W - 4))\n",
     "            sigmas.append((int(s), W - 1))\n",
     "claim 3 more digits for an integer s"),
    ("lfunctions.py",
     "    jmax = 2 * W + 10\n",
     "    jmax = W + 2\n",
     "cut the Bernoulli tail of the series engine"),
    ("lfunctions.py",
     "_MARGIN = 8\n",
     "_MARGIN = 5\n",
     "shrink the working-precision margin"),
    ("characters.py",
     "            if not _bernoulli_table_valid(table):\n",
     "            if False:\n",
     "skip the recursion check on a loaded Bernoulli cache"),
    ("characters.py",
     "    if any(table[n] for n in range(max(start, 3) | 1, len(table), 2)):\n",
     "    if False:\n",
     "let the Bernoulli check skip the odd rows without the zero test"),
    ("characters.py",
     "        if n % 2 and n > 1:\n",
     "        if n % 2:\n",
     "let the Bernoulli check skip row 1, which fixes B_1"),
    ("lambdaring.py",
     "    cap = (h.M + 1) * v0\n",
     "    cap = (h.M + 3) * v0\n",
     "loosen the nu_k tail cap"),
    ("lambdaring.py",
     "    v0 = 1 + v_p(k - 1, p)\n",
     "    v0 = v_p(k - 1, p)\n",
     "drop the 1 + of nu_k's lifting-the-exponent valuation"),
    ("lambdaring.py",
     "    t = PadicNumber(p, 0, pow(topological_generator(p), k - 1, p ** e) - 1, e)\n",
     "    t = PadicNumber(p, 0, pow(topological_generator(p), k, p ** e) - 1, e)\n",
     "let nu_k raise u to k instead of k - 1"),
    ("lfunctions.py",
     "    check_to = min(instance.N, 3)\n",
     "    check_to = min(instance.N, 1)\n",
     "loosen the finite-difference tolerance"),
    ("cli.py",
     '        if status in ("pass", "fail") and not self.config.conclusive:\n',
     "        if False:\n",
     "drop the low-precision downgrade to inconclusive"),
    ("cli.py",
     '        if self.command in ("w-algebra", "hecke"):\n',
     "        if False:\n",
     "downgrade the exact w-algebra and hecke checks at low --prec"),
    # the a <-> F - a symmetry of the series engine
    ("lfunctions.py",
     "        scaled = [Fraction(2 * x * unit_inv % pm, p ** K) for x in total]\n",
     "        scaled = [Fraction(x * unit_inv % pm, p ** K) for x in total]\n",
     "drop the doubling of the half sum"),
    ("lfunctions.py",
     "    for a in range(1, (F + 1) // 2):\n",
     "    for a in range(1, F + 1):\n",
     "sum over every unit and still double"),
    ("lfunctions.py",
     "    if psi.is_odd:\n",
     "    if False:\n",
     "drop the guard against an odd psi"),
    # declared-precision sites
    ("lfunctions.py",
     "    return PadicNumber.from_exact(p, x, N) if x else PadicNumber(p, N, 0, N)\n",
     "    return PadicNumber.from_exact(p, x, N) if x else PadicNumber.zero(p)\n",
     "declare a zero series coefficient an exact zero"),
    ("lfunctions.py",
     "            sigmas.append((s.residue(eff), min(W - 4, eff)))\n",
     "            sigmas.append((s.residue(eff), W - 4))\n",
     "drop the precision cap of a p-adic s"),
    ("padic.py",
     "    return PadicNumber(p, 0, y // pr * pow(p - 1, -1, pr), rel)\n",
     "    return PadicNumber(p, 0, y // pr * pow(p - 1, -1, pr), rel + 1)\n",
     "claim one more digit of plog"),
    ("regulator.py",
     "_W_MARGIN = 4\n",
     "_W_MARGIN = 0\n",
     "drop the Hensel slack of the p-unit root"),
    ("padic.py",
     "        return cls(p, -d, x.numerator * inv, nabs)\n",
     "        return cls(p, -d, x.numerator * inv, nabs + 1)\n",
     "claim one more digit of an exact value"),
    ("padic.py",
     "        return PadicNumber(p, k * v, pow(self.unit, k, p ** rel), k * v + rel)\n",
     "        return PadicNumber(p, k * v, pow(self.unit, k, p ** rel), k * v + rel + 1)\n",
     "claim one more relative digit of a power"),
    ("lfunctions.py",
     "    tol = N - 2\n",
     "    tol = N - 4\n",
     "loosen the order probe's vanishing tolerance"),
    # one digit past what each table row's own declaration site knows
    ("lfunctions.py",
     "    return jets, _declared(p, d1, instance.N)\n",
     "    return jets, _declared(p, d1, instance.N + 5)\n",
     "declare L_p'(0) one digit past its N + 4 good digits"),
    ("characters.py",
     "        return PadicNumber(self.p, 0, r, prec)\n",
     "        return PadicNumber(self.p, 0, r, prec + 1)\n",
     "claim one more digit of a p-adic character value"),
    ("characters.py",
     "    return sum((PadicNumber(chi.p, 0, sums[n - j], prec) * coef\n",
     "    return sum((PadicNumber(chi.p, 0, sums[n - j], prec + 2) * coef\n",
     "claim two more digits of a p-adic gen_bernoulli sum (it knows one)"),
    ("padic.py",
     "    return PadicNumber(p, 0, a * teichmuller_lift(pow(a, -1, p), p, N), N)\n",
     "    return PadicNumber(p, 0, a * teichmuller_lift(pow(a, -1, p), p, N), N + 1)\n",
     "claim one more digit of <a>"),
    ("padic.py",
     "    return PadicNumber(p, 0, _lift_sqrt(r, a, p, N), N)\n",
     "    return PadicNumber(p, 0, _lift_sqrt(r, a, p, N), N + 1)\n",
     "claim one more digit of a Hensel square root"),
    ("qexp.py",
     "        coeffs = [PadicNumber(etaJ.p, 0, c, prec) for c in coeffs]\n",
     "        coeffs = [PadicNumber(etaJ.p, 0, c, prec + 1) for c in coeffs]\n",
     "claim one more digit of a p-adic Eisenstein coefficient"),
    ("padic.py",
     "        return PadicNumber(p, v, self.unit * other.unit, v + rel)\n",
     "        return PadicNumber(p, v, self.unit * other.unit, v + rel + 1)\n",
     "claim one more digit of a product (the rows built by arithmetic)"),
    # the precision a route promises to declare: one digit fewer
    ("lfunctions.py",
     "    return _declared(instance.p, jets[0], min(instance.N, good_to))\n",
     "    return _declared(instance.p, jets[0], min(instance.N, good_to) - 1)\n",
     "declare kubota_leopoldt to N - 1 digits"),
    ("lfunctions.py",
     "    return jets, _declared(p, d1, instance.N)\n",
     "    return jets, _declared(p, d1, instance.N - 1)\n",
     "declare L_p'(0) to N - 1 digits"),
    ("regulator.py",
     "_W_MARGIN = 4\n",
     "_W_MARGIN = 1\n",
     "declare the rank-1 regulator to fewer than N digits"),
    ("padic.py",
     "    return PadicNumber(p, 0, y // pr * pow(p - 1, -1, pr), rel)\n",
     "    return PadicNumber(p, 0, y // pr * pow(p - 1, -1, pr), rel - 1)\n",
     "declare plog to rel - 1 digits"),
    # the checks' targets and fail branches
    ("cli.py",
     "                target = config.prec - 4\n",
     "                target = config.prec - 40\n",
     "loosen the gross-stark target"),
    ("cli.py",
     '                        yield f"k={k} ", got - want, N - 3\n',
     '                        yield f"k={k} ", got - want, N - 30\n',
     "loosen the lambda-nu target"),
    ("cli.py",
     "        if v < target:\n",
     "        if v <= target:\n",
     "fail a diff that meets its target exactly"),
    ("cli.py",
     '                    return "fail", None, "(pi-y)^r != pi^r - y^r"\n',
     '                    return "pass", None, "(pi-y)^r != pi^r - y^r"\n',
     "pass a failed (pi-y)^r identity"),
    # independence of the two sides of a check
    ("cli.py",
     '                        [("discrepancy ", series - exact, config.prec - 2)])\n',
     '                        [("discrepancy ", series - kubota_leopoldt(instance, n), '
     'config.prec - 2)])\n',
     "interp reads the series engine on both sides"),
    ("cli.py",
     "                reg = gross_regulator_rank1(cert)\n",
     "                reg = lan\n",
     "gross-stark takes its regulator from the L-function side"),
    ("lfunctions.py",
     "    return classical_L_at_nonpositive(chi.raise_modulus({p}), n, prec)\n",
     "    return (_series_jets(chi.teichmuller_twist(-n, p), p, 8, [(n, 0)]), "
     "classical_L_at_nonpositive(chi.raise_modulus({p}), n, prec))[1]\n",
     "lstar calls the series engine (its value unchanged)"),
    # domain and cross-layer guards
    ("lambdaring.py",
     "    return n, LambdaElement(h.p, shifted, h.M - n)\n",
     "    return n, LambdaElement(h.p, shifted, h.M)\n",
     "let pi_normalize claim the n unknown top coefficients"),
    ("characters.py",
     "        if self.p not in (None, p):\n",
     "        if False:\n",
     "twist a character that carries another prime"),
    ("cli.py",
     "            if p > MAX_P:\n",
     "            if False:\n",
     "drop the MAX_P bound on --p"),
    ("cli.py",
     "            if abs(d) > MAX_ABS_D:\n",
     "            if False:\n",
     "drop the MAX_ABS_D bound on --disc"),
    ("cli.py",
     '        if self.command in ("interp", "gross-stark") and fw > MAX_FW:\n',
     "        if False:\n",
     "drop the MAX_FW bound on F*W"),
    ("cli.py",
     "                    and self.qexp_terms < (ell := eigen_primes(d)[-1])):\n",
     "                    and self.qexp_terms < (ell := eigen_primes(d)[-2])):\n",
     "lower hecke's --qexp-terms floor from the tenth eigen prime to the ninth"),
    ("walgebra.py",
     "            if (not c.exact_zero if isinstance(c, PadicNumber) else c)})\n",
     "            if not is_zero(c)})\n",
     "let WElement drop coordinates that are zero only to precision"),
    ("cli.py",
     "                if h != half_w * classical:\n",
     "                if False:\n",
     "drop the class number formula check"),
    # branches that decide a check, each reached by a test that patches a
    # dependency, never the function under test
    ("cli.py",
     '            status, val, detail = "inconclusive", None, str(exc)\n',
     '            status, val, detail = "fail", None, str(exc)\n',
     "report a check's PrecisionError as fail"),
    ("cli.py",
     "        except Exception as exc:  # any other fault: the batch goes on\n",
     "        except ValueError as exc:  # any other fault: the batch goes on\n",
     "let a fault that is not a ValueError escape the batch"),
    ("characters.py",
     "            om_exp += (p - 1) // 2\n",
     "            pass\n",
     "move p* out of disc without its omega power"),
    ("characters.py",
     "            disc //= prime_discriminant(p)\n",
     "            disc //= p\n",
     "move p out of disc in place of p*"),
    ("cli.py",
     '                detail = (detail or "") + " [low precision]"\n',
     "                pass\n",
     "drop the [low precision] suffix of a downgraded fail"),
    ("qexp.py",
     "        if u - e != ej:\n",
     "        if False:\n",
     "let the U_p shift law's branch 1 never fail"),
    ("qexp.py",
     "        if u != ej:\n",
     "        if False:\n",
     "let the U_p shift law's branch 2 never fail"),
    ("qexp.py",
     "    if not is_zero(c0):\n",
     "    if False:\n",
     "drop build_Fk's check that c(0) cancels"),
    ("regulator.py",
     "        if {v1, v2} != {0, h}:\n",
     "        if False:\n",
     "accept an embedding that does not separate the primes above p"),
    ("padic.py",
     "    if rest % D:\n",
     "    if False:\n",
     "let Cornacchia return b when (4m - b^2)/D is not an integer"),
    ("lfunctions.py",
     "    if not L0.is_zero_to_precision():\n",
     "    if False:\n",
     "let gross-stark run without the exceptional zero"),
    ("lfunctions.py",
     "    if instance.chi(instance.p) != 1:\n",
     "    if False:\n",
     "analytic_invariant admits r = 0"),
    ("lfunctions.py",
     "        if v_p(fd - d1, p) < min(m - 1, check_to):\n",
     "        if v_p(fd - d1, p) <= min(m - 1, check_to):\n",
     "reject a finite difference that meets its bound exactly"),
    ("characters.py",
     "    return d != 0 and _fold_discriminant(d)[0] == d\n",
     "    return _fold_discriminant(d)[0] == d\n",
     "let is_fundamental_discriminant fold 0"),
    ("qexp.py",
     "    if chi(p) not in (0, 1):\n",
     "    if chi(p) != 0:\n",
     "send a split p into build_Fk's R' branch"),
    ("walgebra.py",
     "                w_inv = one / W\n",
     "                w_inv = W\n",
     "let case 2 use W where it needs 1/W"),
    ("padic.py",
     "    return n >= 2 and factorize(n) == [(n, 1)]\n",
     "    return factorize(n) == [(n, 1)]\n",
     "let is_prime factorize n < 2"),
    ("characters.py",
     "    _cache = cache or _default_cache\n",
     "    _cache = cache\n",
     "let set_shared_cache(None) leave no Bernoulli table"),
    ("padic.py",
     "    def __delattr__(self, name):\n",
     "    def _delattr(self, name):\n",
     "let del through on every value type"),
    ("cli.py",
     "        if self.trials > MAX_TRIALS:\n",
     "        if False:\n",
     "drop the MAX_TRIALS bound on --trials"),
    ("cli.py",
     "        if self.qexp_terms > MAX_QEXP_TERMS:\n",
     "        if False:\n",
     "drop the MAX_QEXP_TERMS bound on --qexp-terms"),
    ("cli.py",
     "        if self.lambda_trunc > MAX_LAMBDA_TRUNC:\n",
     "        if False:\n",
     "drop the MAX_LAMBDA_TRUNC bound on --lambda-trunc"),
    ("cli.py",
     '        if self.command == "lambda" and self.prec - 4 > MAX_LAMBDA_TRUNC:\n',
     "        if False:\n",
     "drop the MAX_LAMBDA_TRUNC bound on lambda's --prec"),
    ("cli.py",
     "    M = max(config.lambda_trunc, N - 4)\n",
     "    M = config.lambda_trunc\n",
     "run lambda at the bare --lambda-trunc"),
    # the Hecke checks on ints: the eigenvalue 1 + chi(l) and T_l's int scale
    ("cli.py",
     "                lam = 1 + chi.residue(ell)  # zip stops at T_l's horizon\n",
     "                lam = 1  # zip stops at T_l's horizon\n",
     "drop chi(l) from hecke-eigen's eigenvalue"),
    ("qexp.py",
     "    scale = ((chi.residue(ell) if chi.is_rational else chi(ell, f.prec))\n",
     "    scale = ((Fraction(chi.residue(ell), ell) if chi.is_rational else chi(ell, f.prec))\n",
     "scale hecke_T's int branch by chi(l) l^(k-2)"),
    # the W-algebra fast paths: unit scalars skipped, sums from the first term
    ("walgebra.py",
     "                prod = a * b if sc is unit else a * b * sc\n",
     "                prod = a * b\n",
     "drop every structure constant"),
    ("cli.py",
     "            L, W = Laurent.var_L(), Laurent.var_W()\n",
     "            L, W = Laurent.const(5), Laurent.var_W()\n",
     "formal L becomes a number"),
    ("walgebra.py",
     "                out[k] = out[k] + prod if k in out else prod\n",
     "                out[k] = prod\n",
     "let a product overwrite the coordinate it adds to"),
    ("walgebra.py",
     "            out[k] = out[k] + v if sign > 0 else out[k] - v\n",
     "            out[k] = out[k] + v\n",
     "let the sparse signed sum add where both sides have a key"),
    ("walgebra.py",
     "            out[k] = v if sign > 0 else -v\n",
     "            out[k] = v\n",
     "let the sparse signed sum keep the sign of a key only the subtrahend has"),
    ("walgebra.py",
     "                total = total - term if k % 2 else total + term\n",
     "                total = total + term\n",
     "add det's odd-position terms, the alternating sign"),
    # the W-algebra shortcuts: the unit is never multiplied, generators are
    # built once
    ("walgebra.py",
     "    return {i: sc if c is unit else c * sc for i, c in coords.items()}\n",
     "    return {i: sc for i, c in coords.items()}\n",
     "let a scalar replace a coordinate that is not the unit"),
    ("walgebra.py",
     "    prod = entry[0] if sc is unit else sc * entry[0]\n",
     "    prod = entry[0]\n",
     "let the structure check skip a scalar that is not the unit"),
    ("walgebra.py",
     "        key = (a, b, J)\n",
     "        key = (b, J)\n",
     "drop the pi power from the generator memo key"),
    ("walgebra.py",
     "        key = (a, b, J)\n",
     "        key = (a, b)\n",
     "drop the eps indices from the generator memo key"),
    # each operation's one implementation: the u_j check, T_l's V_l term,
    # subtraction through addition
    ("lfunctions.py",
     "        if u.denominator % p == 0:\n",
     "        if False:\n",
     "let a u_j that is not p-integral into the series rows"),
    ("qexp.py",
     "        c + scale * f.coeffs[n // ell] if n % ell == 0 else c\n",
     "        c + scale * f.coeffs[n // ell] if False else c\n",
     "drop T_l's V_l term"),
    ("padic.py",
     "        return self.__add__(-other)\n",
     "        return self.__add__(other)\n",
     "let p-adic subtraction add"),
    # the walg-det trial: one determinant pair, each entry one element
    ("cli.py",
     "                    dets = (det(lm), det(o))\n",
     "                    dets = (det(o), det(lm))\n",
     "swap the shared determinant pair"),
    ("walgebra.py",
     "    detl, deto = (det(l_matrix), det(o_matrix)) if dets is None else dets\n",
     "    detl, deto = (det(o_matrix), det(l_matrix)) if dets is None else dets\n",
     "swap the determinant pair an identity computes itself"),
    ("walgebra.py",
     "        row = [_sum_of_scaled(gen, l_ij, eps_i, o_ij)\n",
     "        row = [_sum_of_scaled(gen, l_ij, eps_i, -o_ij)\n",
     "flip the sign of the eps_i term of each matrix entry"),
    ("walgebra.py",
     "    return WElement(x.algebra, _signed_sum(mine, theirs, 1))\n",
     "    return WElement(x.algebra, {**mine, **theirs})\n",
     "let one-element entries overwrite where gen and eps_i overlap"),
    # each case takes only its own parameters
    ("walgebra.py",
     "            if s is not None or t is not None:\n",
     "            if False:\n",
     "let cases 1 and 2 take s and t"),
    ("walgebra.py",
     "            if r_an is not None:\n",
     "            if False:\n",
     "let case 3 take r_an"),
]


def own_tests_first(tree: Path, filename: str) -> list:
    """Every test file, tests/test_<stem>.py of filename first; [] if none.

    Each file is named: pytest keeps the order of its arguments, but drops
    a file named before its own directory, so naming one file and then
    tests/ would not reorder anything.
    """
    own = tree / "tests" / f"test_{Path(filename).stem}.py"
    if not own.is_file():
        return []
    rest = sorted(set((tree / "tests").glob("test_*.py")) - {own})
    return [str(path.relative_to(tree)) for path in [own, *rest]]


def tier1(tree: Path, files=()) -> bool:
    """True when tier-1 passes on tree (a timeout counts as a failure).

    files, when given, names every test file in the order to run them;
    otherwise pytest runs tests/ in its default order.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode after a mutant
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *files]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def stale_mutants(src: Path) -> list:
    """One message per mutant whose original line does not occur exactly
    once in its file under src, is the mutant line itself, or is indented
    differently from it."""
    stale = []
    for filename, original, mutant, what in MUTANTS:
        count = (src / filename).read_text().count(original)
        if count != 1:
            stale.append(f"{filename}: the line {original.strip()!r} occurs "
                         f"{count} times, not once")
        elif original == mutant:
            stale.append(f"{filename}: the mutant {what!r} changes nothing")
        elif _indent(original) != _indent(mutant):
            stale.append(f"{filename}: the mutant {what!r} changes the "
                         f"indentation")
    return stale


def main() -> int:
    stale = stale_mutants(ROOT / "src" / "grossstark")
    for message in stale:
        print(message, file=sys.stderr)
    if stale:
        return 2
    with tempfile.TemporaryDirectory(prefix="grossstark-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree / name)
        if not tier1(tree):
            print("tier-1 fails on the unmutated tree", file=sys.stderr)
            return 2
        survivors = 0
        for filename, original, mutant, what in MUTANTS:
            path = tree / "src" / "grossstark" / filename
            text = path.read_text()
            path.write_text(text.replace(original, mutant))
            try:
                survived = tier1(tree, own_tests_first(tree, filename))
            finally:
                path.write_text(text)
            survivors += survived
            print(f"{'SURVIVED' if survived else 'killed':>8}  "
                  f"{filename}: {what}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
