"""The verify CLI: exit codes, report schema, caching, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grossstark.cli import (CACHE_ENV, CONCLUSIVE_PRECISION, ReportBuilder,
                            RunConfig, UsageError, main)
from grossstark.errors import (ConstructionError, DegenerateInstanceError,
                               DomainError)
from grossstark.walgebra import WAlgebra


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
        RunConfig("interp", qexp_terms=10, discs=(-4,)).validate()
    with pytest.raises(UsageError):
        RunConfig("interp", discs=(-6,)).validate()   # not fundamental
    with pytest.raises(UsageError):
        RunConfig("interp", discs=(8,)).validate()    # positive
    with pytest.raises(UsageError):
        RunConfig("interp").validate()                # discs required
    with pytest.raises(UsageError):
        RunConfig("lambda", primes=(4,)).validate()
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


def test_package_imports_without_sympy():
    # a fresh interpreter: nothing in the package may pull sympy back in
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import grossstark, grossstark.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'sympy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_exits_0(capsys):
    code, _, _ = run(["--help"], capsys)
    assert code == 0


# -- passing runs ---------------------------------------------------------------

def test_interp_run_passes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(["interp", "--p", "5", "--disc", "-4", "--prec", "8",
                        "--json", str(report_path)], capsys)
    assert code == 0
    assert "[        pass]" in out
    report = json.loads(report_path.read_text())
    assert report["config"]["command"] == "interp"
    assert report["config"]["primes"] == [5]
    assert all(c["status"] == "pass" for c in report["checks"])
    assert {"id", "instance", "status", "discrepancy_valuation", "ms"} \
        <= set(report["checks"][0])
    assert all(c["id"] == "interp" for c in report["checks"])
    # one record per (p, disc, n) with n in four values
    assert len(report["checks"]) == 4


def test_gross_stark_run(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, out, _ = run(["gross-stark", "--p", "5", "--disc", "-4",
                        "--prec", "10", "--json", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert [c["status"] for c in report["checks"]] == ["pass"]
    assert report["checks"][0]["id"] == "gross-stark"
    assert report["checks"][0]["discrepancy_valuation"] >= 6


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


def test_w_algebra_run(capsys):
    code, out, _ = run(["w-algebra", "--trials", "5"], capsys)
    assert code == 0
    assert "walg-structure" in out
    assert "walg-det" in out


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


def test_hecke_run(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, out, _ = run(["hecke", "--p", "5", "--disc", "-4",
                        "--json", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    ids = {c["id"] for c in report["checks"]}
    assert ids == {"hecke-up", "hecke-eigen"}


# -- precision gate ---------------------------------------------------------------

@pytest.mark.parametrize("exc", [DegenerateInstanceError, ConstructionError])
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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    code, _, _ = run(["lambda", "--p", "5", "--prec", "6"], capsys)
    assert code == 0
    assert (cache / "bernoulli.json").exists()


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


def test_summary_line(capsys):
    code, out, _ = run(["w-algebra", "--trials", "2"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert "checks:" in lines[-1]
    assert "pass" in lines[-1]
