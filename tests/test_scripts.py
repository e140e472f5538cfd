"""The experiment scripts under scripts/ run end to end."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import driftlab

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
TABLES = ("office31", "officehome", "visda", "domainnet", "digits")


def run_script(name, *args, cwd):
    src = str(Path(driftlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=cwd)


def test_rank_benchmarks_prints_both_routes_for_every_table(tmp_path):
    proc = run_script("rank_benchmarks.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["table", "chi2", "f_stat", "dof", "route"]
    cells = [row.split() for row in rows]
    assert [(c[0], c[-1]) for c in cells] == [
        (name, route) for name in TABLES for route in ("reported", "exact")]
    # the reported route reproduces the published digits statistics
    assert cells[-2][1:4] == ["69.77", "11.48", "(22,66)"]


def rank_benchmark_rows(tmp_path, monkeypatch, capsys, table):
    """The rows rank_benchmarks.py prints for one rank table."""
    spec = importlib.util.spec_from_file_location(
        "rank_benchmarks", SCRIPTS / "rank_benchmarks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "toy_ranks.csv").write_text(table)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    monkeypatch.setattr(script, "TABLES", ("toy",))
    script.main()
    return [row.split() for row in capsys.readouterr().out.splitlines()[1:]]


def test_rank_benchmarks_prints_an_undefined_f(tmp_path, monkeypatch, capsys):
    # every task ranks the two methods alike, so F is undefined
    rows = rank_benchmark_rows(
        tmp_path, monkeypatch, capsys,
        "method,T1,T2,T3,T4,avg_rank\nAlpha,1,1,1,1,1\nBeta,2,2,2,2,2\n")
    assert rows == [["toy", "4.00", "undefined", "(1,3)", "reported"],
                    ["toy", "4.00", "undefined", "(1,3)", "exact"]]


def test_rank_benchmarks_prints_an_undefined_chi2(tmp_path, monkeypatch,
                                                   capsys):
    # two methods tied on every task share rank 1, where chi2 would be -10
    rows = rank_benchmark_rows(
        tmp_path, monkeypatch, capsys,
        "method,T1,T2,avg_rank\nAlpha,1,1,1\nBeta,1,1,1\n")
    assert rows == [["toy", "undefined", "undefined", "(1,1)", "reported"],
                    ["toy", "undefined", "undefined", "(1,1)", "exact"]]


def test_run_adaptation_writes_its_report(tmp_path):
    report = tmp_path / "r.json"
    proc = run_script("run_adaptation.py", str(report), "epochs=0",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    written = json.loads(report.read_text())
    assert lines[0].split() == ["config", "hash", written["config_hash"]]
    assert lines[-1] == f"report written to {report}"
