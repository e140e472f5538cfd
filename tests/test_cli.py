"""CLI tests: exit codes, pinned output bytes, and format plumbing."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import driftlab
from driftlab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------
# train / sweep
# ---------------------------------------------------------------------

class TestTrain:
    def test_smoke_writes_report(self, capsys, tmp_path):
        report = tmp_path / "toy.json"
        code, out, _ = run(capsys, "train",
                           "--config", str(FIXTURES / "train" / "toy.cfg"),
                           "--report", str(report))
        assert code == 0
        assert report.exists()
        assert out.splitlines()[0].startswith("config_hash ")
        assert f"report {report}" in out

    def test_default_report_path_next_to_config(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text("epochs=0\nn_per_domain=20\nbatch_size=4\n"
                       "target_ratio=uniform\n")
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "mini.report.json").exists()

    def test_missing_config_names_path(self, capsys):
        code, _, err = run(capsys, "train", "--config", "no/such.cfg")
        assert code == 2
        assert "no/such.cfg" in err

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta=1.5\n")
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert "beta" in err

    def test_set_override_changes_hash(self, capsys, tmp_path):
        cfg = str(FIXTURES / "train" / "toy.cfg")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "train", "--config", cfg, "--report", str(a))
        run(capsys, "train", "--config", cfg, "--report", str(b),
            "--set", "beta=0.7")
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["config_hash"] != rb["config_hash"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "train",
                           "--config", str(FIXTURES / "train" / "toy.cfg"),
                           "--report", str(tmp_path / "r.json"),
                           "--set", "lr_model=1e300", "--set", "epochs=2")
        assert code == 3
        assert "error:" in err
        assert "epoch 1, batch 1: encoder features: " in err

    def test_toy_output_bytes_are_pinned(self, capsys, tmp_path):
        report, ckpt = tmp_path / "toy.json", tmp_path / "toy.ckpt"
        code, _, _ = run(capsys, "train",
                         "--config", str(FIXTURES / "train" / "toy.cfg"),
                         "--report", str(report), "--checkpoint", str(ckpt))
        assert code == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "bfc89c3186056c699cfcc0af6e86324eda02ac6d242e375b7fe41a24213ac7b8")
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == (
            "ab4b00810b788ae74f00f082a4003d26f249434465b30ee34bcf8a22cfb05003")

    def test_structured_output_is_the_report(self, capsys, tmp_path):
        report = tmp_path / "toy.json"
        code, out, _ = run(capsys, "train",
                           "--config", str(FIXTURES / "train" / "toy.cfg"),
                           "--report", str(report),
                           "--format", "structured")
        assert code == 0
        assert out == report.read_text()

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "train", "--config", "x.cfg", "--bogus")
        assert code == 2


class TestSweep:
    def test_sweep_reports_and_hashes(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, out, _ = run(capsys, "sweep",
                           "--config", str(FIXTURES / "train" / "toy.cfg"),
                           "--set", "epochs=0",
                           "--values", "0.2,0.5,0.8",
                           "--out-dir", str(out_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("beta=0.2 ")
        hashes = {line.split()[1] for line in lines}
        assert len(hashes) == 3
        assert len(list(out_dir.glob("run_*.json"))) == 3

    def test_empty_values_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep",
                         "--config", str(FIXTURES / "train" / "toy.cfg"),
                         "--values", ",")
        assert code == 2


# ---------------------------------------------------------------------
# ot
# ---------------------------------------------------------------------

OT = FIXTURES / "ot"


class TestOt:
    def test_identical_files_beta_zero(self, capsys):
        code, out, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                           str(OT / "uniform4.csv"), "--beta", "0")
        assert code == 0
        assert out == "0.000000000\n"

    def test_containment_prints_zero(self, capsys):
        code, out, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                           str(OT / "contained4.csv"), "--beta", "0.4")
        assert code == 0
        assert out == "0.000000000\n"

    def test_violating_fixture_value(self, capsys):
        # excess target mass at the first atom travels one unit:
        # 0.55 - 0.25/0.6 = 2/15
        code, out, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                           str(OT / "violating4.csv"), "--beta", "0.4")
        assert code == 0
        assert out == "0.1333333333\n"
        assert float(out) == pytest.approx(2.0 / 15.0, abs=1e-9)

    def test_nested_distance_runs(self, capsys):
        code, out, _ = run(capsys, "ot", str(OT / "nested_a.csv"),
                           str(OT / "nested_b.csv"), "--nested",
                           "--beta", "0.3")
        assert code == 0
        assert float(out) > 0.0

    def test_byte_identical_stdout(self, capsys):
        args = ("ot", str(OT / "nested_a.csv"), str(OT / "nested_b.csv"),
                "--nested", "--beta", "0.3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("row,flag", [("0.25,nan", "--nested"),
                                          ("nan,3.0", "--beta=0")])
    def test_non_finite_input_exits_2(self, capsys, tmp_path, row, flag):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.25,0.0\n0.25,1.0\n0.25,2.0\n" + row + "\n")
        code, out, err = run(capsys, "ot", str(OT / "uniform4.csv"),
                             str(bad), flag)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_mass_mismatch_is_infeasible(self, capsys, tmp_path):
        heavy = tmp_path / "heavy.csv"
        heavy.write_text("1.0,0.0\n1.0,1.0\n")
        code, _, err = run(capsys, "ot", str(OT / "uniform4.csv"),
                           str(heavy), "--beta", "0")
        assert code == 4
        assert "mass" in err

    def test_bad_beta_rejected(self, capsys):
        code, _, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                         str(OT / "uniform4.csv"), "--beta", "1.0")
        assert code == 2

    def test_plan_file(self, capsys, tmp_path):
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                         str(OT / "violating4.csv"), "--beta", "0.4",
                         "--plan", str(plan))
        assert code == 0
        rows = [line.split(",") for line in
                plan.read_text().strip().splitlines()]
        total = sum(float(r[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_structured_keys(self, capsys):
        code, out, _ = run(capsys, "ot", str(OT / "uniform4.csv"),
                           str(OT / "contained4.csv"), "--beta", "0.4",
                           "--format", "structured")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"distance", "beta", "nested"}
        assert data["distance"] == 0.0

    LARGE_SOURCE = ("0.386841799432938,879.1606182879854,-1071.7874168774442\n"
                    "0.06042446430653269,914.4672031287812,-20.06345461548042\n"
                    "0.19357221766927382,-1248.7488903344156,-313.8994719668477\n"
                    "0.35916151859125545,54.10227877154389,272.79133916445375\n")
    LARGE_TARGET = ("0.4077485999703397,-982.1881249409778,-1107.373047165193\n"
                    "0.5686279317080278,199.58453284708082,-466.74961687980203\n"
                    "0.02362346832163236,235.5056117302252,759.5195224783791\n")

    @pytest.mark.parametrize("beta", ["0", "0.4"])
    def test_costs_near_1e3_terminate(self, tmp_path, beta):
        # At this cost scale rounding gives reduced costs below -1e-13. A
        # solver that re-opens settled nodes then loops forever, so the
        # CLI runs in a subprocess whose timeout fails the test.
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text(self.LARGE_SOURCE)
        tgt.write_text(self.LARGE_TARGET)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(driftlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from driftlab.cli import main; "
             "sys.exit(main())", "ot", str(src), str(tgt), "--beta", beta],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        a, b = (np.loadtxt(path, delimiter=",") for path in (src, tgt))
        costs = np.linalg.norm(a[:, None, 1:] - b[None, :, 1:], axis=2)
        n, m = costs.shape
        lp = linprog(costs.ravel(), A_ub=np.kron(np.eye(n), np.ones(m)),
                     b_ub=a[:, 0] / (1.0 - float(beta)),
                     A_eq=np.kron(np.ones(n), np.eye(m)), b_eq=b[:, 0],
                     bounds=(0, None), method="highs")
        assert lp.status == 0, lp.message
        assert float(proc.stdout) == pytest.approx(lp.fun, rel=1e-9)


# ---------------------------------------------------------------------
# cmi
# ---------------------------------------------------------------------

CMI = FIXTURES / "cmi"


class TestCmi:
    def test_conditionally_independent_exact_zero(self, capsys):
        code, out, _ = run(capsys, "cmi", "--joint",
                           str(CMI / "independent.csv"))
        assert code == 0
        assert out == "exact 0.000000000\n"

    def test_ln2_estimate_within_three_se(self, capsys):
        code, out, _ = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                           "--samples", "500", "--k", "256", "--seed", "0")
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert float(lines["exact"]) == pytest.approx(math.log(2), abs=1e-9)
        est, se = float(lines["cnce"]), float(lines["se"])
        assert abs(est - 0.6931) <= 3.0 * se

    def test_k_one_estimate_exactly_zero(self, capsys):
        code, out, _ = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                           "--samples", "500", "--k", "1")
        assert code == 0
        assert "cnce 0.000000000" in out

    def test_k_below_one_exits_2(self, capsys):
        code, _, _ = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                         "--k", "0")
        assert code == 2

    def test_feature_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        src.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                 for row in rng.normal(size=(12, 3))) + "\n")
        tgt.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                 for row in rng.normal(size=(12, 3))) + "\n")
        code, out, _ = run(capsys, "cmi", "--source", str(src),
                           "--target", str(tgt), "--train-steps", "5")
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert set(lines) == {"cnce", "se"}

    @pytest.mark.parametrize("mode", ["joint", "features"])
    def test_non_finite_input_exits_2(self, capsys, tmp_path, mode):
        bad = tmp_path / "bad.csv"
        if mode == "joint":
            bad.write_text("0,0,0,0.5\n1,1,0,nan\n")
            argv = ["--joint", str(bad)]
        else:
            good = tmp_path / "good.csv"
            good.write_text("0.5,1.0\n-1.0,2.0\n")
            bad.write_text("0.5,1.0\nnan,2.0\n")
            argv = ["--source", str(bad), "--target", str(good)]
        code, out, err = run(capsys, "cmi", *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err
        if mode == "features":
            assert "line 2" in err

    def test_joint_and_features_conflict(self, capsys):
        code, _, _ = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                         "--source", "a.csv", "--target", "b.csv")
        assert code == 2

    def test_no_inputs_rejected(self, capsys):
        code, _, _ = run(capsys, "cmi")
        assert code == 2


# ---------------------------------------------------------------------
# friedman
# ---------------------------------------------------------------------

class TestFriedman:
    def test_office31_rank_fixture(self, capsys):
        code, out, _ = run(capsys, "friedman",
                           str(FIXTURES / "office31_ranks.csv"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,")
        stats = dict(line.split(None, 1) for line in lines[-3:])
        assert float(stats["chi2"]) == pytest.approx(83.58, abs=1.0)
        assert float(stats["f_stat"]) == pytest.approx(3.97, abs=0.5)
        assert stats["dof"] == "30 180"

    def test_officehome_accuracy_fixture(self, capsys):
        code, out, _ = run(capsys, "friedman",
                           str(FIXTURES / "officehome_accuracy.csv"))
        assert code == 0
        stats = dict(line.split(None, 1)
                     for line in out.strip().splitlines()[-3:])
        assert float(stats["chi2"]) == pytest.approx(254.62, abs=1.0)
        assert float(stats["f_stat"]) == pytest.approx(31.7, abs=0.5)

    def test_two_method_toy_chi2_equals_n(self, capsys):
        code, out, _ = run(capsys, "friedman",
                           str(FIXTURES / "toy_two_methods.csv"))
        assert code == 0
        assert "chi2 4.000000000" in out
        assert "f_stat undefined" in out

    def test_malformed_table_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,T1\nA,1,2,3\n")
        code, _, _ = run(capsys, "friedman", str(bad))
        assert code == 2

    def test_structured_matches_schema(self, capsys):
        code, out, _ = run(capsys, "friedman",
                           str(FIXTURES / "toy_two_methods.csv"),
                           "--format", "structured")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"chi2", "f_stat", "dof_between", "dof_residual"}
        assert data["chi2"] == 4.0
        assert data["f_stat"] is None

    def test_byte_identical_stdout(self, capsys):
        args = ("friedman", str(FIXTURES / "digits_ranks.csv"))
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# ---------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------

class TestBound:
    def test_all_terms_at_entropy_give_zero(self, capsys):
        code, out, _ = run(capsys, "bound",
                           str(FIXTURES / "bound" / "equal_ln2.cfg"))
        assert code == 0
        for line in out.strip().splitlines():
            assert line.endswith(" 0.000000000")

    def test_three_class_worked_example(self, capsys, tmp_path):
        inputs = tmp_path / "b.cfg"
        h = math.log(3)
        inputs.write_text(
            f"label_entropy={h!r}\nsource_specific_info=0.2\n"
            "target_specific_info=0.2\ncross_info_given_source=0.2\n"
            "cross_info_given_target=0.2\nnum_classes=3\n")
        code, out, _ = run(capsys, "bound", str(inputs))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines["unified"] == "0.5928657473"

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        inputs = tmp_path / "b.cfg"
        inputs.write_text("entropy=1.0\n")
        code, _, err = run(capsys, "bound", str(inputs))
        assert code == 2
        assert "entropy" in err

    def test_missing_key_exits_2(self, capsys, tmp_path):
        inputs = tmp_path / "b.cfg"
        inputs.write_text("num_classes=2\n")
        code, _, err = run(capsys, "bound", str(inputs))
        assert code == 2
        assert "label_entropy" in err

    def test_structured_matches_bayes_bound(self, capsys):
        from driftlab.evalstats import bayes_bound
        code, out, _ = run(capsys, "bound",
                           str(FIXTURES / "bound" / "equal_ln2.cfg"),
                           "--format", "structured")
        assert code == 0
        want = bayes_bound({
            "label_entropy": math.log(2),
            "source_specific_info": math.log(2),
            "target_specific_info": math.log(2),
            "cross_info_given_source": math.log(2),
            "cross_info_given_target": math.log(2),
            "num_classes": 2,
        })
        assert json.loads(out) == want


# ---------------------------------------------------------------------
# unreadable inputs
# ---------------------------------------------------------------------

READERS = {
    "ot": lambda bad: ["ot", bad, str(OT / "uniform4.csv")],
    "cmi-joint": lambda bad: ["cmi", "--joint", bad],
    "cmi-features": lambda bad: ["cmi", "--source", bad, "--target", bad],
    "friedman": lambda bad: ["friedman", bad],
    "bound": lambda bad: ["bound", bad],
    "train": lambda bad: ["train", "--config", bad],
}


@pytest.mark.parametrize("kind", ["non-ascii", "directory"])
@pytest.mark.parametrize("command", sorted(READERS))
def test_unreadable_input_exits_2(capsys, tmp_path, command, kind):
    if kind == "directory":
        bad = tmp_path
    else:
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# header\n0.5,1\xff\n")
    code, out, err = run(capsys, *READERS[command](str(bad)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------

class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "fit")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
