"""The verify CLI: exit codes, report schema, caching, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grossstark import __version__, cli, lfunctions, walgebra
from grossstark.characters import (BernoulliCache, DirichletCharacter,
                                   bernoulli_number)
from grossstark.cli import (CONCLUSIVE_PRECISION, ReportBuilder, RunConfig,
                            UsageError, main)
from grossstark.errors import (ConstructionError, DegenerateInstanceError,
                               DomainError, PrecisionError)
from grossstark.qexp import QExpansion
from grossstark.walgebra import WAlgebra, build_W


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def masked(report):
    """Strip wall-clock fields so reports can be compared for determinism."""
    out = json.loads(json.dumps(report))
    for check in out["checks"]:
        check.pop("ms", None)
    out.pop("meta", None)
    return out


# -- config validation --------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(UsageError):
        RunConfig("interp", prec=0, discs=(-4,)).validate()
    with pytest.raises(UsageError):
        RunConfig("hecke", qexp_terms=10, discs=(-4,)).validate()
    for command in ("interp", "gross-stark", "lambda", "w-algebra"):
        # only hecke reads --qexp-terms, so only hecke has its 4p floor
        RunConfig(command, qexp_terms=10, discs=(-4,)).validate()
    with pytest.raises(UsageError):
        RunConfig("interp", discs=(-6,)).validate()   # not fundamental
    with pytest.raises(UsageError):
        RunConfig("interp", discs=(8,)).validate()    # positive
    with pytest.raises(UsageError):
        RunConfig("interp").validate()                # discs required
    with pytest.raises(UsageError):
        RunConfig("lambda", primes=(4,)).validate()
    with pytest.raises(UsageError, match="lambda-trunc must be at least 1"):
        RunConfig("lambda", lambda_trunc=0).validate()
    with pytest.raises(UsageError, match="trials must be at least 1"):
        RunConfig("w-algebra", trials=0).validate()
    RunConfig("lambda").validate()                    # discs optional here
    RunConfig("w-algebra").validate()


def test_usage_errors_exit_2(capsys):
    code, _, err = run(["interp"], capsys)  # missing --disc
    assert code == 2
    assert "disc" in err
    code, _, _ = run(["interp", "--disc", "-4", "--prec", "0"], capsys)
    assert code == 2
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 2
    code, _, _ = run([], capsys)
    assert code == 2


@pytest.mark.parametrize("p", ["9", "15"])
def test_composite_p_exits_2(capsys, p):
    code, _, err = run(["gross-stark", "--p", p, "--disc", "-4"], capsys)
    assert code == 2
    assert "odd prime" in err


def test_p_above_max_p_exits_2_before_the_primality_test():
    # validate only: never run a check at these p
    RunConfig("lambda", primes=(99991,)).validate()   # the largest prime <= MAX_P
    for p in (100003, 3 * (10 ** 13 + 37)):
        t0 = time.perf_counter()
        with pytest.raises(UsageError, match=f"above MAX_P = {cli.MAX_P}"):
            RunConfig("lambda", primes=(p,)).validate()
        assert time.perf_counter() - t0 < 0.05, p
    with pytest.raises(UsageError, match="odd prime"):
        RunConfig("lambda", primes=(99999,)).validate()


def test_disc_above_max_abs_d_exits_2_before_the_discriminant_test():
    # validate only: never run a check at these d
    RunConfig("lambda", discs=(-99995,)).validate()   # the largest |d| admitted
    for d in (-(cli.MAX_ABS_D + 3), -(10 ** 12 + 3), 10 ** 12):
        t0 = time.perf_counter()
        with pytest.raises(UsageError,
                           match=f"above MAX_ABS_D = {cli.MAX_ABS_D}"):
            RunConfig("lambda", discs=(d,)).validate()
        assert time.perf_counter() - t0 < 0.05, d


def test_fw_above_max_fw_exits_2_before_the_series_engine():
    # validate only.  Admitted: the largest instance timed, the largest of
    # the |d| < 3000 sweep at its N + 10 = 22, and the other large-F
    # instances; p = 3, d = -30011 is admitted up to N = 14
    admitted = [(3, -30011, 14), (13, -2999, 22), (3, -9431, 40),
                (13, -991, 12), (3, -1151, 40)]
    for command in ("interp", "gross-stark"):
        for p, d, N in admitted:
            RunConfig(command, primes=(p,), discs=(d,), prec=N).validate()
        for primes, discs, N in (((3,), (-30011,), 15),
                                 ((3, 13), (-4, -30011), 12)):
            with pytest.raises(UsageError,
                               match=f"above MAX_FW = {cli.MAX_FW}"):
                RunConfig(command, primes=primes, discs=discs,
                          prec=N).validate()
    # hecke runs no series engine, so F*W does not bound it
    RunConfig("hecke", primes=(3,), discs=(-30011,), prec=15).validate()


@pytest.mark.parametrize("command, field, flag, bound", [
    ("w-algebra", "trials", "--trials", "MAX_TRIALS"),
    ("hecke", "qexp_terms", "--qexp-terms", "MAX_QEXP_TERMS"),
    ("lambda", "lambda_trunc", "--lambda-trunc", "MAX_LAMBDA_TRUNC"),
])
def test_count_options_are_bounded(capsys, command, field, flag, bound):
    # validate only at the bound itself: never run a check at these sizes
    limit = getattr(cli, bound)
    given = {"primes": (5,), "discs": (-4,)} if command == "hecke" else {}
    RunConfig(command, **given, **{field: limit}).validate()
    with pytest.raises(UsageError, match=f"above {bound} = {limit}"):
        RunConfig(command, **given, **{field: limit + 1}).validate()
    argv = [command, flag, str(limit + 1)]
    argv += ["--p", "5", "--disc", "-4"] if command == "hecke" else []
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert f"is above {bound} = {limit}" in err


def test_lambda_prec_is_bounded_through_max_lambda_trunc(capsys):
    # validate only at the edge: lambda runs at M = N - 4, never start it
    edge = cli.MAX_LAMBDA_TRUNC + 4
    RunConfig("lambda", prec=edge).validate()
    with pytest.raises(UsageError, match=f"prec - 4 = {edge - 3} is above "
                       f"MAX_LAMBDA_TRUNC = {cli.MAX_LAMBDA_TRUNC}"):
        RunConfig("lambda", prec=edge + 1).validate()
    RunConfig("w-algebra", prec=edge + 1).validate()  # only lambda builds M
    code, out, err = run(["lambda", "--prec", str(edge + 1)], capsys)
    assert (code, out) == (2, "")
    assert "MAX_LAMBDA_TRUNC" in err


def test_package_imports_without_sympy():
    # a fresh interpreter: nothing in the package may pull sympy back in,
    # nor dataclasses (the value types share padic.Immutable)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import grossstark, grossstark.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'dataclasses')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_exits_0(capsys):
    code, _, _ = run(["--help"], capsys)
    assert code == 0


def test_every_usage_error_has_its_row_in_the_readme_table():
    # each UsageError message, any text standing in for its {fields}, is in
    # a row of README.md's exit-code table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme[readme.index("| exit-2 cause"):].split("\n\n")[0]
    rows = table.replace("\\|", "|").splitlines()
    source = Path(cli.__file__).read_text()
    messages = [node.exc.args[0] for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "UsageError"]
    assert len(messages) == source.count("raise UsageError(")
    for message in messages:
        parts = (message.values if isinstance(message, ast.JoinedStr)
                 else [message])
        pattern = "".join(re.escape(part.value)
                          if isinstance(part, ast.Constant) else "[^`|]+"
                          for part in parts)
        assert any(re.search(f"`{pattern}`", row) for row in rows), pattern


# -- runs ------------------------------------------------------------------------

def test_gross_stark_non_split_is_error(capsys, tmp_path):
    # chi_{-4}(7) = -1: no exceptional zero, the check records an error
    report_path = tmp_path / "r.json"
    code, out, _ = run(["gross-stark", "--p", "7", "--disc", "-4",
                        "--json", str(report_path)], capsys)
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["checks"][0]["status"] == "error"
    assert "split" in report["checks"][0]["detail"]


def test_gross_stark_searches_before_the_series_engine(capsys, tmp_path,
                                                       monkeypatch):
    # a p-unit search that fails ends the check before any series pass
    import grossstark.cli as cli
    calls = []

    def counted(instance):
        calls.append(instance)
        raise AssertionError("the series engine must not run")

    def no_unit(d, p, N=12):
        raise DomainError("no p-unit")

    monkeypatch.setattr(cli, "analytic_invariant", counted)
    monkeypatch.setattr(cli, "find_p_unit", no_unit)
    report_path = tmp_path / "r.json"
    code, _, _ = run(["gross-stark", "--p", "5", "--disc", "-4",
                      "--json", str(report_path)], capsys)
    assert code == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert [(c["status"], c["error"]) for c in checks] == \
        [("error", "DomainError")]
    assert calls == []


def test_gross_stark_class_number_41(capsys, tmp_path):
    # h(-1151) = 41: the p-unit search runs to the class number
    report_path = tmp_path / "r.json"
    code, _, _ = run(["gross-stark", "--p", "3", "--disc", "-1151",
                      "--json", str(report_path)], capsys)
    assert code == 0
    checks = json.loads(report_path.read_text())["checks"]
    assert [c["status"] for c in checks] == ["pass"]


def test_gross_stark_empty_p_unit_search_fails(capsys, tmp_path, monkeypatch):
    # no norm-form solution up to h(d) is a program fault: a fail record
    import grossstark.regulator as regulator
    monkeypatch.setattr(regulator, "cornacchia", lambda D, m: None)
    report_path = tmp_path / "r.json"
    code, _, _ = run(["gross-stark", "--p", "5", "--disc", "-4",
                      "--json", str(report_path)], capsys)
    assert code == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert [(c["status"], c.get("error")) for c in checks] == [("fail", None)]
    assert "h(d) = 1" in checks[0]["detail"]


def test_w_algebra_corrupt_table_becomes_error_records(capsys, tmp_path,
                                                      monkeypatch):
    # a non-associative case-2, r = 2 table: its three checks are recorded
    # as errors and the batch goes on
    real = WAlgebra._make_table

    def corrupted(self):
        table = real(self)
        if self.case == 2 and self.r == 2:
            table[1][1] = (table[1][1][0], 1)  # pi * pi -> sc * pi
        return table

    monkeypatch.setattr(WAlgebra, "_make_table", corrupted)
    report_path = tmp_path / "r.json"
    code, _, _ = run(["w-algebra", "--trials", "1", "--json", str(report_path)],
                     capsys)
    assert code == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert len(checks) == 9
    for c in checks:
        if c["instance"].startswith("r=2"):
            assert (c["status"], c["error"], c["detail"]) == \
                ("error", "ConstructionError", "associativity failure")
        else:
            assert c["status"] == "pass" and "error" not in c


@pytest.mark.parametrize("argv, code, statuses", [
    (["gross-stark", "--p", "5", "--disc", "-20"], 1,
     [("error", "DomainError")]),                       # ramified p
    (["gross-stark", "--p", "3", "--disc", "-4"], 1,
     [("error", "DomainError")]),                       # inert p
    (["interp", "--p", "3", "--disc", "-3", "--prec", "8"], 1,
     [("error", "UnsupportedPoleError")] * 4),          # pole twist
    (["gross-stark", "--p", "5", "--disc", "-4", "--prec", "1"], 0,
     [("inconclusive", None)]),                         # precision too low
])
def test_adversarial_instances(capsys, tmp_path, argv, code, statuses):
    report_path = tmp_path / "r.json"
    got, _, _ = run(argv + ["--json", str(report_path)], capsys)
    assert got == code
    checks = json.loads(report_path.read_text())["checks"]
    assert [(c["status"], c.get("error")) for c in checks] == statuses


def test_lambda_run(capsys):
    code, out, _ = run(["lambda", "--p", "5", "--prec", "8"], capsys)
    assert code == 0
    assert "lambda-nu" in out
    assert "lambda-normalize" in out


def test_lambda_run_at_a_three_digit_prime(capsys):
    # lambda-normalize specializes at k = 1 + p^3
    code, out, _ = run(["lambda", "--p", "101"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "11 checks: 11 pass"


def test_lambda_nu_declares_its_target_digits(capsys, monkeypatch):
    # --lambda-trunc is a floor: at the default M = 16, nu_k would declare
    # only M + 1 = 17 digits at k = 2, short of the N - 3 = 37 compared
    N, declared = 40, []
    real = cli.nu_k

    def recorded(h, k):
        got = real(h, k)
        if k != 1:
            declared.append((k, got.precision))
        return got

    monkeypatch.setattr(cli, "nu_k", recorded)
    code, out, _ = run(["lambda", "--p", "5", "--prec", str(N)], capsys)
    assert (code, out.splitlines()[-1]) == (0, "11 checks: 11 pass")
    assert {k for k, _ in declared} == {2, 3, 5, 26, 126}
    assert min(prec for _, prec in declared) >= N - 3


def test_hecke_run(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, out, _ = run(["hecke", "--p", "5", "--disc", "-4",
                        "--json", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    ids = {c["id"] for c in report["checks"]}
    assert ids == {"hecke-up", "hecke-eigen"}


def test_qexp_terms_bound_applies_to_hecke_only(capsys):
    code, out, _ = run(["gross-stark", "--p", "53", "--disc", "-4",
                        "--prec", "6"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "1 checks: 1 pass")
    code, _, err = run(["hecke", "--p", "53", "--disc", "-4"], capsys)
    assert code == 2
    assert "qexp-terms must be at least 4p = 212" in err


# -- fail branches ----------------------------------------------------------------
# Each check's library call is perturbed by a known amount, so the check must
# report fail with that valuation and detail, and the run must exit 1.

def fail_run(argv, capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, _, _ = run(argv + ["--json", str(report_path)], capsys)
    checks = json.loads(report_path.read_text())["checks"]
    return code, [(c["id"], c["instance"], c["status"],
                   c["discrepancy_valuation"], c.get("detail"))
                  for c in checks]


@pytest.mark.parametrize("shift, status, val, detail", [
    (5, "fail", 5, "discrepancy valuation 5 < 6"),
    (6, "pass", 6, None),                              # exactly the target
])
def test_interp_compares_with_the_exact_route(capsys, tmp_path, monkeypatch,
                                              shift, status, val, detail):
    real = cli.lstar
    monkeypatch.setattr(cli, "lstar",
                        lambda *a, **kw: real(*a, **kw) + 5 ** shift)
    code, rows = fail_run(["interp", "--p", "5", "--disc", "-4",
                           "--prec", "8"], capsys, tmp_path)
    assert code == (1 if status == "fail" else 0)
    assert rows == [("interp", f"p=5 d=-4 n={n}", status, val, detail)
                    for n in (0, -1, -2, -3)]


@pytest.mark.parametrize("perturb, status, val, detail", [
    (lambda reg: reg + 5 ** 7, "fail", 7, "discrepancy valuation 7 < 8"),
    (lambda reg: reg + 5 ** 8, "pass", 8, None),       # exactly the target
    (lambda reg: -reg, "fail", 1, "convention flag: pure sign mismatch "
                                  "between analytic and regulator sides"),
])
def test_gross_stark_compares_with_the_regulator(capsys, tmp_path,
                                                 monkeypatch, perturb, status,
                                                 val, detail):
    real = cli.gross_regulator_rank1
    monkeypatch.setattr(cli, "gross_regulator_rank1",
                        lambda cert: perturb(real(cert)))
    code, rows = fail_run(["gross-stark", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == (1 if status == "fail" else 0)
    assert rows == [("gross-stark", "p=5 d=-4", status, val, detail)]


def test_gross_stark_checks_the_class_number_formula(capsys, tmp_path,
                                                     monkeypatch):
    # h(-4) = 1 = (4/2) L(chi_-4, 0); a wrong h fails before the comparison
    monkeypatch.setattr(cli, "class_number", lambda d: 2)
    code, rows = fail_run(["gross-stark", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == 1
    assert rows == [("gross-stark", "p=5 d=-4", "fail", None,
                     "class number formula fails: h(-4) = 2, "
                     "(w/2) L(chi, 0) = 1")]


def test_gross_stark_checks_the_exceptional_zero(capsys, tmp_path,
                                                 monkeypatch):
    # L_p + 1 at every point keeps the finite differences and L_p'(0), but
    # L_p(chi*omega, 0) no longer vanishes: Gross's formula has no hypothesis
    real = lfunctions._series_jets

    def shifted(chi, p, W, points):
        return [([c[0] + 1, *c[1:]], good)
                for c, good in real(chi, p, W, points)]

    monkeypatch.setattr(lfunctions, "_series_jets", shifted)
    code, rows = fail_run(["gross-stark", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == 1
    assert rows == [("gross-stark", "p=5 d=-4", "fail", None,
                     "no exceptional zero: L_p(chi*omega, 0) has valuation "
                     "0 < 12")]


def test_lambda_nu_compares_with_the_angle_bracket(capsys, tmp_path,
                                                   monkeypatch):
    # <x> moved by 5^4 moves <x>^(k-1) at k = 2 by exactly 5^4 < 5^(N-3)
    real = cli.angle_bracket
    monkeypatch.setattr(cli, "angle_bracket",
                        lambda x, p, N: real(x, p, N) + 5 ** 4)
    code, rows = fail_run(["lambda", "--p", "5", "--prec", "8"],
                          capsys, tmp_path)
    assert code == 1
    xs = [x for x in range(2, 40) if x % 5][:10]
    assert rows[:-1] == [("lambda-nu", f"p=5 x={x}", "fail", 4,
                          "k=2 valuation 4 < 5") for x in xs]
    assert rows[-1][:3] == ("lambda-normalize", "p=5", "pass")


@pytest.mark.parametrize("shift, m", [(0, 2), (1, 3)])
def test_lambda_normalize_compares_with_the_leading_term(capsys, tmp_path,
                                                         monkeypatch, shift, m):
    # the normalized series' constant term moved by 5^shift: the m = 2 bound
    # (valuation >= 1) rejects a unit, the m = 3 bound (>= 2) rejects 5^1
    real = cli.pi_normalize

    def moved(h):
        n, hp = real(h)
        return n, hp + 5 ** shift

    monkeypatch.setattr(cli, "pi_normalize", moved)
    code, rows = fail_run(["lambda", "--p", "5", "--prec", "8"],
                          capsys, tmp_path)
    assert code == 1
    assert rows[-1] == ("lambda-normalize", "p=5", "fail", shift,
                        f"m={m} valuation {shift} < {m - 1}")
    assert {row[2] for row in rows[:-1]} == {"pass"}


def test_walg_structure_checks_the_dimensions(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(WAlgebra, "dimension",
                        property(lambda self: len(self.basis) + 1))
    code, rows = fail_run(["w-algebra", "--trials", "1"], capsys, tmp_path)
    assert code == 1
    structure = [row for row in rows if row[0] == "walg-structure"]
    assert structure == [
        ("walg-structure", f"r={r}", "fail", None,
         f"dims {2 ** r + r}, {2 ** r + 2 * r - 1}") for r in (1, 2, 3)]


@pytest.mark.parametrize("trials", [1, 3])
def test_walg_det_makes_five_determinants_per_trial(trials, capsys,
                                                    monkeypatch):
    # per trial and (r, mode): the shared (det(l), det(o)) pair once, then one
    # W-matrix det in each of the three identities; 30 in all per trial
    sizes = []
    real = walgebra.det

    def counting(matrix):
        sizes.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(walgebra, "det", counting)
    monkeypatch.setattr(cli, "det", counting)
    code, _, _ = run(["w-algebra", "--trials", str(trials)], capsys)
    assert code == 0
    assert len(sizes) == 30 * trials
    assert all(sizes.count(r) == 10 * trials for r in (1, 2, 3))


def test_walg_det_formal_mode_is_symbolic(monkeypatch):
    # each formal algebra carries L and W as symbols in its rule scalars, so
    # its records check polynomial identities, not one numeric instance
    built = []

    def recording(*args, **kwargs):
        built.append(build_W(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_W", recording)
    config = RunConfig("w-algebra", trials=1)
    for check_id, _, check in cli.cmd_w_algebra(config):
        if check_id == "walg-det":
            assert check()[0] == "pass"
    formal = {(a.case, a.r): a for a in built if a.formal}
    assert sorted(formal) == [(c, r) for c in (1, 2, 3) for r in (1, 2, 3)]
    for (case, r), alg in formal.items():
        (lc,) = alg.eps_product().coords.values()
        assert set(lc.terms) == {(1, -1 if case == 2 else 0)}
        if case > 1:  # pi^r -> (W + 1)/W y^r, y^r -> W pi^(r+1)
            (wc,) = (alg.pi(r) if case == 2 else alg.y(r)).coords.values()
            assert set(wc.terms) == ({(0, 0), (0, -1)} if case == 2
                                     else {(0, 1)})


def test_walg_det_checks_each_residue(capsys, tmp_path, monkeypatch):
    def case2_det_identity(o, lm, alg, *, dets=None):
        return alg.one()

    monkeypatch.setattr(cli, "case2_det_identity", case2_det_identity)
    code, rows = fail_run(["w-algebra", "--trials", "1"], capsys, tmp_path)
    assert code == 1
    assert [row for row in rows if row[0] == "walg-det"] == [
        ("walg-det", f"r={r} {mode}", "fail", None,
         "case2_det_identity residue nonzero")
        for r in (1, 2, 3) for mode in ("concrete", "formal")]


@pytest.mark.parametrize("case, least, rs, detail", [
    (2, 2, (2, 3), "(pi-y)^r != pi^r - y^r"),  # (pi-y)^1 = pi - y always
    (3, 1, (1, 2, 3), "y^t != W pi^s"),
])
def test_walg_det_checks_the_ring_identities(capsys, tmp_path, monkeypatch,
                                             case, least, rs, detail):
    # y^power moved by 1 in one case from power `least` on; the determinant
    # identities, which read y^r too, are stubbed to zero so the ring
    # identities are reached
    for n in (1, 2, 3):
        name = f"case{n}_det_identity"
        monkeypatch.setattr(cli, name,
                            lambda o, lm, alg, *, dets=None: alg.zero())
    real_y = WAlgebra.y

    def moved_y(self, power=1):
        y = real_y(self, power)
        return y + self.one() if self.case == case and power >= least else y

    monkeypatch.setattr(WAlgebra, "y", moved_y)
    code, rows = fail_run(["w-algebra", "--trials", "1"], capsys, tmp_path)
    assert code == 1
    assert [row for row in rows if row[0] == "walg-det"] == [
        ("walg-det", f"r={r} {mode}", *(("fail", None, detail) if r in rs
                                        else ("pass", None, None)))
        for r in (1, 2, 3) for mode in ("concrete", "formal")]


def test_hecke_up_reports_the_first_discrepancy(capsys, tmp_path, monkeypatch):
    real = cli.verify_up_relation
    monkeypatch.setattr(cli, "verify_up_relation", lambda *a, **kw: (
        ("branch2", 4), real(*a, **kw)[1]))
    code, rows = fail_run(["hecke", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == 1
    assert rows[0] == ("hecke-up", "p=5 d=-4", "fail", None,
                       "first discrepancy ('branch2', 4)")
    assert rows[1][:3] == ("hecke-eigen", "d=-4", "pass")


def test_hecke_qexp_terms_floor_is_the_tenth_eigen_prime(capsys, tmp_path):
    # T_l reads the q-expansion up to q^l, and l_10 = 31 > 4p = 20 for d = -4
    assert cli.eigen_primes(-4) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert cli.eigen_primes(-20)[-1] == 37
    code, _, err = run(["hecke", "--p", "5", "--disc", "-4",
                        "--qexp-terms", "30"], capsys)
    assert code == 2
    assert "qexp-terms must be at least 31, the tenth prime coprime to -4" \
        in err
    code, rows = fail_run(["hecke", "--p", "5", "--disc", "-4",
                           "--qexp-terms", "31"], capsys, tmp_path)
    assert code == 0
    assert rows == [("hecke-up", "p=5 d=-4", "pass", None, "7 coefficients"),
                    ("hecke-eigen", "d=-4", "pass", None, "10 primes")]


def test_check_precision_error_is_inconclusive(capsys, tmp_path,
                                              monkeypatch):
    # a PrecisionError at a conclusive --prec is inconclusive, not failure
    def short(ell, form):
        raise PrecisionError(f"T_{ell} past the horizon")

    monkeypatch.setattr(cli, "hecke_T", short)
    code, rows = fail_run(["hecke", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == 0
    assert rows[1] == ("hecke-eigen", "d=-4", "inconclusive", None,
                       "T_3 past the horizon")


def test_hecke_eigen_reports_the_first_bad_coefficient(capsys, tmp_path,
                                                       monkeypatch):
    real = cli.hecke_T

    def moved(ell, form):
        out = real(ell, form)
        if ell != 7:
            return out
        coeffs = list(out.coeffs)
        coeffs[5] += 1
        return QExpansion(out.weight, out.character, coeffs, out.prec)

    monkeypatch.setattr(cli, "hecke_T", moved)
    code, rows = fail_run(["hecke", "--p", "5", "--disc", "-4"],
                          capsys, tmp_path)
    assert code == 1
    assert rows[0][:3] == ("hecke-up", "p=5 d=-4", "pass")
    assert rows[1] == ("hecke-eigen", "d=-4", "fail", None, "T_7 at q^5")


# -- golden transcripts ----------------------------------------------------------

LAMBDA_XS = ("2", "3", "4", "6", "7", "8", "9", "11", "12", "13")

GOLDEN = {
    "interp": (
        ["interp", "--p", "5", "--disc", "-4", "--prec", "8"], 0,
        """\
[        pass] interp p=5 d=-4 n=0
[        pass] interp p=5 d=-4 n=-1
[        pass] interp p=5 d=-4 n=-2
[        pass] interp p=5 d=-4 n=-3
4 checks: 4 pass
""", "",
        {"primes": [5], "discs": [-4], "prec": 8},
        [("interp", "p=5 d=-4 n=0", "pass"),
         ("interp", "p=5 d=-4 n=-1", "pass"),
         ("interp", "p=5 d=-4 n=-2", "pass"),
         ("interp", "p=5 d=-4 n=-3", "pass")], []),
    "gross-stark": (
        ["gross-stark", "--p", "5", "--p", "7", "--disc", "-4", "--disc", "-3",
         "--prec", "10"], 1,
        """\
[        pass] gross-stark p=5 d=-4 valuation=10
[       error] gross-stark p=5 d=-3 (p = 5 is not split in Q(sqrt(-3)): chi(5) = -1)
[       error] gross-stark p=7 d=-4 (p = 7 is not split in Q(sqrt(-4)): chi(7) = -1)
[        pass] gross-stark p=7 d=-3 valuation=10
4 checks: 2 error, 2 pass
""", "",
        {"primes": [5, 7], "discs": [-4, -3], "prec": 10},
        [("gross-stark", "p=5 d=-4", "pass", 10),
         ("gross-stark", "p=5 d=-3", "error", None,
          "p = 5 is not split in Q(sqrt(-3)): chi(5) = -1", "DomainError"),
         ("gross-stark", "p=7 d=-4", "error", None,
          "p = 7 is not split in Q(sqrt(-4)): chi(7) = -1", "DomainError"),
         ("gross-stark", "p=7 d=-3", "pass", 10)], []),
    "hecke": (
        ["hecke", "--p", "5", "--disc", "-4", "--qexp-terms", "40"], 0,
        """\
[        pass] hecke-up p=5 d=-4 (9 coefficients)
[        pass] hecke-eigen d=-4 (10 primes)
2 checks: 2 pass
""", "",
        {"primes": [5], "discs": [-4], "qexp_terms": 40},
        [("hecke-up", "p=5 d=-4", "pass", None, "9 coefficients"),
         ("hecke-eigen", "d=-4", "pass", None, "10 primes")], []),
    "lambda": (
        ["lambda", "--p", "5", "--prec", "5"], 0,
        """\
[inconclusive] lambda-nu p=5 x=2
[inconclusive] lambda-nu p=5 x=3
[inconclusive] lambda-nu p=5 x=4
[inconclusive] lambda-nu p=5 x=6
[inconclusive] lambda-nu p=5 x=7
[inconclusive] lambda-nu p=5 x=8
[inconclusive] lambda-nu p=5 x=9
[inconclusive] lambda-nu p=5 x=11
[inconclusive] lambda-nu p=5 x=12
[inconclusive] lambda-nu p=5 x=13
[inconclusive] lambda-normalize p=5
11 checks: 11 inconclusive
""", """\
warning: lambda-nu p=5 x=2: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=3: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=4: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=6: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=7: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=8: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=9: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=11: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=12: precision 5 < 6, result inconclusive
warning: lambda-nu p=5 x=13: precision 5 < 6, result inconclusive
warning: lambda-normalize p=5: precision 5 < 6, result inconclusive
""",
        {"primes": [5], "prec": 5},
        [("lambda-nu", f"p=5 x={x}", "inconclusive") for x in LAMBDA_XS]
        + [("lambda-normalize", "p=5", "inconclusive")],
        [f"lambda-nu p=5 x={x}: precision 5 < 6, result inconclusive"
         for x in LAMBDA_XS]
        + ["lambda-normalize p=5: precision 5 < 6, result inconclusive"]),
    "w-algebra": (
        ["w-algebra", "--trials", "2"], 0,
        """\
[        pass] walg-structure r=1 (dims 2, 2)
[        pass] walg-det r=1 concrete
[        pass] walg-det r=1 formal
[        pass] walg-structure r=2 (dims 5, 6)
[        pass] walg-det r=2 concrete
[        pass] walg-det r=2 formal
[        pass] walg-structure r=3 (dims 10, 12)
[        pass] walg-det r=3 concrete
[        pass] walg-det r=3 formal
9 checks: 9 pass
""", "",
        {"trials": 2},
        [row for r, dims in ((1, "2, 2"), (2, "5, 6"), (3, "10, 12"))
         for row in (("walg-structure", f"r={r}", "pass", None, f"dims {dims}"),
                     ("walg-det", f"r={r} concrete", "pass"),
                     ("walg-det", f"r={r} formal", "pass"))], []),
}


def _golden_record(check_id, instance, status, val=None, detail=None,
                   error=None):
    rec = {"id": check_id, "instance": instance, "status": status,
           "discrepancy_valuation": val}
    if detail is not None:
        rec["detail"] = detail
    if error is not None:
        rec["error"] = error
    return rec


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_transcript(name, capsys, tmp_path):
    # exit code, stdout, stderr and the report (minus ms) of one run of each
    # subcommand, key order included, pinned as the verifier prints them
    argv, code, out, err, config, rows, warnings = GOLDEN[name]
    path = tmp_path / "r.json"
    assert run(argv + ["--json", str(path)], capsys) == (code, out, err)
    report = json.loads(path.read_text())
    for check in report["checks"]:
        del check["ms"]
    want_config = {"command": argv[0], "primes": [3, 5, 7], "discs": [],
                   "prec": 12, "qexp_terms": 200, "lambda_trunc": 16,
                   "trials": 100, "cache_dir": None}
    want_config.update(config)
    assert list(report) == ["version", "config", "checks", "warnings"]
    assert list(report["config"].items()) == list(want_config.items())
    assert [list(c.items()) for c in report["checks"]] == \
        [list(_golden_record(*row).items()) for row in rows]
    assert report["warnings"] == warnings
    assert report["version"] == __version__


# -- precision gate ---------------------------------------------------------------

@pytest.mark.parametrize("exc", [DegenerateInstanceError, ConstructionError,
                                 ValueError, ZeroDivisionError,
                                 RecursionError])
def test_library_errors_become_error_records(exc):
    # one failing instance is recorded and the batch goes on
    rb = ReportBuilder(RunConfig("gross-stark", discs=(-4,)))

    def boom():
        raise exc("search exhausted")

    rec = rb.run("gross-stark", "p=3 d=-1151", boom)
    assert rec["status"] == "error"
    assert rec["detail"] == "search exhausted"
    assert rec["error"] == exc.__name__
    ok = rb.run("gross-stark", "p=5 d=-4", lambda: ("pass", None, None))
    assert "error" not in ok
    assert [c["status"] for c in rb.checks] == ["error", "pass"]
    assert rb.exit_code() == 1


def first_call_raises(real, exc=ValueError):
    """real, except that its first call raises exc("injected fault")."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise exc("injected fault")
        return real(*args, **kwargs)
    return patched


def records(argv, capsys, tmp_path):
    """The exit code and the --json report's records, minus ms."""
    path = tmp_path / "r.json"
    code = main(argv + ["--json", str(path)])
    capsys.readouterr()
    return code, masked(json.loads(path.read_text()))["checks"]


# command -> (argv, a function its checks call through cli, the index of the
# first record whose check calls it)
FAULTS = {
    "gross-stark": (["gross-stark", "--p", "3", "--disc", "-8", "--disc",
                     "-11"], "gross_regulator_rank1", 0),
    "interp": (["interp", "--p", "5", "--disc", "-4", "--prec", "8"],
               "lstar", 0),
    "hecke": (["hecke", "--p", "5", "--disc", "-4", "--qexp-terms", "40"],
              "verify_up_relation", 0),
    "lambda": (["lambda", "--p", "5"], "nu_k", 0),
    "w-algebra": (["w-algebra", "--trials", "2"], "case2_det_identity", 1),
}


@pytest.mark.parametrize("command", sorted(FAULTS))
def test_a_fault_ends_only_its_own_record(command, capsys, tmp_path,
                                          monkeypatch):
    # a program fault in one check is one error record; every other record
    # is the one the run makes without the fault
    argv, name, at = FAULTS[command]
    _, want = records(argv, capsys, tmp_path)
    monkeypatch.setattr(cli, name, first_call_raises(getattr(cli, name)))
    code, got = records(argv, capsys, tmp_path)
    assert code == 1
    assert got[at] == {"id": want[at]["id"], "instance": want[at]["instance"],
                       "status": "error", "discrepancy_valuation": None,
                       "detail": "injected fault", "error": "ValueError"}
    assert got[:at] + got[at + 1:] == want[:at] + want[at + 1:]


def test_a_fault_building_the_character_ends_only_its_records(
        capsys, tmp_path, monkeypatch):
    # each check builds its own character, so a fault there is caught too
    _, want = records(["interp", "--p", "5", "--disc", "-11"], capsys,
                      tmp_path)
    real = DirichletCharacter.quadratic

    def quadratic(cls, d):
        if d == -8:
            raise ValueError("injected fault")
        return real(d)

    monkeypatch.setattr(DirichletCharacter, "quadratic",
                        classmethod(quadratic))
    code, got = records(["interp", "--p", "5", "--disc", "-8", "--disc",
                         "-11"], capsys, tmp_path)
    assert code == 1
    assert got[:4] == [{"id": "interp", "instance": f"p=5 d=-8 n={n}",
                        "status": "error", "discrepancy_valuation": None,
                        "detail": "injected fault", "error": "ValueError"}
                       for n in (0, -1, -2, -3)]
    assert got[4:] == want


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_still_stops_the_batch(exc, capsys, monkeypatch):
    monkeypatch.setattr(cli, "lstar", first_call_raises(cli.lstar, exc))
    with pytest.raises(exc):
        main(["interp", "--p", "5", "--disc", "-4", "--prec", "8"])


def test_low_precision_downgrades_to_inconclusive(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, out, err = run(["interp", "--p", "5", "--disc", "-4", "--prec", "3",
                          "--json", str(report_path)], capsys)
    assert code == 0  # inconclusive is not failure
    report = json.loads(report_path.read_text())
    assert all(c["status"] == "inconclusive" for c in report["checks"])
    assert report["warnings"]
    assert str(CONCLUSIVE_PRECISION) in report["warnings"][0]
    assert "warning" in err


@pytest.mark.parametrize("argv", [
    ["w-algebra", "--trials", "2"],
    ["hecke", "--p", "5", "--disc", "-4", "--qexp-terms", "40"],
])
def test_exact_commands_are_conclusive_at_any_precision(capsys, tmp_path,
                                                        argv):
    # w-algebra never reads --prec and hecke's quadratic q-expansions are
    # exact: at --prec 1 they pass, unwarned, with the default run's records
    reports = []
    for prec in ("1", str(RunConfig(argv[0]).prec)):
        path = tmp_path / f"r{prec}.json"
        code, _, err = run(argv + ["--prec", prec, "--json", str(path)],
                           capsys)
        assert (code, err) == (0, "")
        reports.append(masked(json.loads(path.read_text())))
    low, default = reports
    assert low["warnings"] == []
    assert {c["status"] for c in low["checks"]} == {"pass"}
    assert low["checks"] == default["checks"]


def test_low_precision_fail_is_inconclusive_with_a_suffix(capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "class_number", lambda d: 2)
    code, rows = fail_run(["gross-stark", "--p", "5", "--disc", "-4",
                           "--prec", "5"], capsys, tmp_path)
    assert code == 0
    assert rows == [("gross-stark", "p=5 d=-4", "inconclusive", None,
                     "class number formula fails: h(-4) = 2, (w/2) L(chi, 0) "
                     "= 1 [low precision]")]
    assert json.loads((tmp_path / "r.json").read_text())["warnings"] == [
        "gross-stark p=5 d=-4: precision 5 < 6, result inconclusive"]


# -- determinism and caching ------------------------------------------------------

def test_reports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["w-algebra", "--trials", "3", "--json", str(path)],
                         capsys)
        assert code == 0
    ra = masked(json.loads(a.read_text()))
    rb = masked(json.loads(b.read_text()))
    assert ra == rb


def test_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = run(["interp", "--p", "5", "--disc", "-4", "--prec", "8",
                      "--cache", str(cache), "--json", str(a)], capsys)
    assert code == 0
    assert (cache / "bernoulli.json").exists()
    cold = json.loads(a.read_text())["meta"]["bernoulli_computed"]
    assert cold > 0
    code, _, _ = run(["interp", "--p", "5", "--disc", "-4", "--prec", "8",
                      "--cache", str(cache), "--json", str(b)], capsys)
    assert code == 0
    warm = json.loads(b.read_text())["meta"]["bernoulli_computed"]
    assert warm == 0


def _interp(cache, prec):
    return ["interp", "--p", "5", "--disc", "-4", "--prec", str(prec),
            "--cache", str(cache)]


def _replaces(monkeypatch):
    """Record every os.replace onto a cache file, still making it."""
    calls, real = [], os.replace

    def recorded(src, dst):
        calls.append(dst)
        real(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    return calls


def test_warm_run_leaves_the_cache_file_untouched(capsys, tmp_path,
                                                  monkeypatch):
    cache = tmp_path / "cache"
    path = cache / "bernoulli.json"
    assert run(_interp(cache, 12), capsys)[0] == 0
    before = path.stat()
    replaces = _replaces(monkeypatch)
    assert run(_interp(cache, 8), capsys)[0] == 0
    after = path.stat()
    assert replaces == []
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_run_that_extends_the_table_rewrites_the_cache(capsys, tmp_path,
                                                       monkeypatch):
    cache = tmp_path / "cache"
    path = cache / "bernoulli.json"
    assert run(_interp(cache, 8), capsys)[0] == 0
    short = len(json.loads(path.read_text())["entries"])
    replaces = _replaces(monkeypatch)
    assert run(_interp(cache, 12), capsys)[0] == 0
    assert replaces == [str(path)]
    assert len(json.loads(path.read_text())["entries"]) > short


def test_discarded_cache_file_is_rewritten_valid(capsys, tmp_path):
    # a tampered file of the full length is discarded on load, so the run
    # must write the recomputed table even though its length is unchanged
    cache = tmp_path / "cache"
    path = cache / "bernoulli.json"
    assert run(_interp(cache, 8), capsys)[0] == 0
    data = json.loads(path.read_text())
    data["entries"][2][1] = "9999/7"
    path.write_text(json.dumps(data))
    assert run(_interp(cache, 8), capsys)[0] == 0
    reloaded = BernoulliCache(str(path))
    n = len(data["entries"]) - 1
    assert reloaded.number(n) == bernoulli_number(n)
    assert reloaded.computed_count == 0
    assert json.loads(path.read_text())["entries"][2][1] == "1/6"


def test_report_schema(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, _, _ = run(["lambda", "--p", "5", "--json", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert {"version", "config", "checks", "warnings"} <= set(report)
    cfg = report["config"]
    assert {"command", "primes", "discs", "prec", "qexp_terms",
            "lambda_trunc", "trials", "cache_dir"} == set(cfg)
    for check in report["checks"]:
        assert check["status"] in ("pass", "fail", "inconclusive", "error")


# -- file errors ----------------------------------------------------------------

def test_report_in_missing_directory_exits_2(capsys, tmp_path, monkeypatch):
    # the report's directory is checked before the first check runs
    import grossstark.cli as cli

    def never(config):
        raise AssertionError("no check may run")

    monkeypatch.setitem(cli.COMMANDS, "gross-stark", never)
    path = tmp_path / "no" / "such" / "r.json"
    code, out, err = run(["gross-stark", "--p", "5", "--disc", "-4",
                          "--json", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "cannot write the report" in err
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_report_that_cannot_be_opened_exits_2_after_the_run(capsys, tmp_path):
    # the directory exists, so the run goes ahead and the write fails late
    path = tmp_path / "r.json"
    path.mkdir()
    code, out, err = run(["lambda", "--p", "5", "--prec", "6",
                          "--json", str(path)], capsys)
    assert code == 2
    assert "checks:" in out                     # the run itself completed
    assert err.count("error:") == 1
    assert "cannot write the report" in err
    assert "Traceback" not in err


def test_cache_that_is_a_file_exits_2_before_any_check(capsys, tmp_path,
                                                       monkeypatch):
    import grossstark.cli as cli
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")

    def never(config):
        raise AssertionError("no check may run")

    monkeypatch.setitem(cli.COMMANDS, "lambda", never)
    code, out, err = run(["lambda", "--cache", str(blocker)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "cannot use the cache directory" in err
    assert blocker.read_text() == "not a directory"


def test_failing_cache_save_exits_2(capsys, tmp_path):
    # the save writes bernoulli.json.tmp first; a directory there stops it
    cache = tmp_path / "cache"
    (cache / "bernoulli.json.tmp").mkdir(parents=True)
    report_path = tmp_path / "r.json"
    code, _, err = run(["interp", "--p", "5", "--disc", "-4", "--prec", "8",
                        "--cache", str(cache), "--json", str(report_path)],
                       capsys)
    assert code == 2
    assert err.count("error:") == 1
    assert "cannot save the cache" in err
    # the report is still written, and the shared cache is unhooked
    assert json.loads(report_path.read_text())["checks"]
    from grossstark import characters
    assert characters._cache is characters._default_cache
