"""CLI tests: exit codes, pinned output bytes, and format plumbing."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.optimize import linprog

import driftlab
from driftlab import ot, pipeline
from driftlab.cli import main
from driftlab.pipeline import TrainConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout):
    """The CLI in a fresh interpreter: its real stderr, and a timeout
    that fails the test where a command would never end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(driftlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from driftlab.cli import main; "
         "sys.exit(main())", *argv],
        capture_output=True, text=True, timeout=timeout, env=env)


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

    def test_massless_features_exit_3_under_the_global_term(self, capsys, tmp_path,
                                                            monkeypatch):
        # Encoder features below about -745 in every entry give the
        # critic's measure normalization rows of mass 0 from the first
        # step on; the evaluation at epoch 0 runs before the shift.
        step = pipeline.adversarial_step

        def sunk(state, batch_s, batch_t, config):
            last = state.phi.layers[-1]
            last.b.value = last.b.value - 1e4
            return step(state, batch_s, batch_t, config)

        monkeypatch.setattr(pipeline, "adversarial_step", sunk)
        code, out, err = run(capsys, "train",
                             "--config", str(FIXTURES / "train" / "toy.cfg"),
                             "--report", str(tmp_path / "r.json"))
        assert (code, out) == (3, "")
        assert err == ("error: epoch 1, batch 0: global consistency term: measure "
                       "normalization: a row's weights sum to 0 or overflow\n")

    @pytest.mark.parametrize("sigma", ["1e100", "1e300"])
    def test_oversized_noise_sigma_exits_2(self, tmp_path, sigma):
        # Past about 1e18 the two moons round onto each other and no
        # class-1 point is ever accepted. The draw once looped forever,
        # so the CLI runs in a subprocess whose timeout fails the test.
        proc = run_process("train", "--config", str(FIXTURES / "train" / "toy.cfg"),
                           "--report", str(tmp_path / "r.json"),
                           "--set", "epochs=0", "--set", "n_per_domain=8",
                           "--set", f"noise_sigma={sigma}", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(r"error: noise_sigma=\S+ is too large: .*\n",
                            proc.stderr)

    # numpy refuses 10**20 with a ValueError, not a MemoryError. For
    # 2**63 numpy's arange returns an empty array, which the random
    # generator refuses the same way.
    @pytest.mark.parametrize("field, size", [
        pytest.param("n_per_domain", 10 ** 20, id="n_per_domain"),
        pytest.param("feature_dim", 10 ** 20, id="feature_dim"),
        pytest.param("n_per_domain", 2 ** 63, id="n_per_domain-2**63")])
    def test_size_past_numpy_index_range_exits_2(self, capsys, tmp_path, field, size):
        code, out, err = run(capsys, "train",
                             "--config", str(FIXTURES / "train" / "toy.cfg"),
                             "--report", str(tmp_path / "r.json"),
                             "--set", f"{field}={size}")
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: input too large to allocate: .*\n", err)

    @pytest.mark.parametrize("ratio", ["nan:1", "1:nan", "inf:1", "inf:inf",
                                       "1e308:1e308"])
    @pytest.mark.parametrize("route", ["config", "set"])
    def test_non_finite_ratio_exits_2(self, capsys, tmp_path, ratio, route):
        # a NaN or infinite side, or a sum past the float range
        cfg = tmp_path / "ratio.cfg"
        cfg.write_text("epochs=0\nn_per_domain=8\n"
                       + (f"source_ratio={ratio}\n" if route == "config" else ""))
        extra = ["--set", f"target_ratio={ratio}"] if route == "set" else []
        code, out, err = run(capsys, "train", "--config", str(cfg),
                             "--report", str(tmp_path / "r.json"), *extra)
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: [^\n]*\n", err), err

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

    def test_equal_masses_at_large_scale_are_balanced(self, capsys, tmp_path):
        # The two masses differ in their last bits only: 300000000.29999995
        # against 300000000.3. An absolute 1e-9 slack once refused them.
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text("100000000.1,0.0\n200000000.2,1.0\n")
        tgt.write_text("300000000.3,0.5\n")
        code, out, err = run(capsys, "ot", str(src), str(tgt))
        assert (code, out, err) == (0, "150000000.1\n", "")

    def test_nested_distance_runs(self, capsys):
        code, out, _ = run(capsys, "ot", str(OT / "nested_a.csv"),
                           str(OT / "nested_b.csv"), "--nested",
                           "--beta", "0.3")
        assert code == 0
        assert float(out) > 0.0

    @pytest.mark.parametrize("flag", ["--beta=0", "--beta=0.4", "--nested"])
    def test_width_mismatch_exits_2(self, capsys, tmp_path, flag):
        # a 3-wide source against a 2-wide target once printed a distance
        # (--nested) or raised a numpy broadcast error (exit 1)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("0.5,0.1,0.2\n0.5,-0.3,0.4\n")
        code, out, err = run(capsys, "ot", str(OT / "nested_a.csv"),
                             str(narrow), flag)
        assert code == 2
        assert out == ""
        assert "widths differ" in err

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
        assert err.startswith("error: line 4: ") and "finite" in err

    @pytest.mark.parametrize("target", ["0.5,1e308,9e307\n0.5,1e308,1e308\n",
                                        "0.5,1.0,2.0\n0.5,2.0,1.0\n"],
                             ids=["both-overflow", "one-overflows"])
    def test_nested_weight_overflow_exits_2(self, capsys, tmp_path, target):
        # softplus weights of 1e308 are finite, but a row's sum is not;
        # normalizing by it once printed 0 (both sides overflow) or
        # raised a mass mismatch (one side). The sum must not warn either.
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text("0.5,1e308,1e308\n0.5,1.5e308,1e308\n")
        tgt.write_text(target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "ot", str(src), str(tgt), "--nested")
        assert code == 2
        assert out == ""
        assert "overflow" in err and "finite" in err

    @pytest.mark.parametrize("flag", ["--beta=0", "--beta=0.4", "--nested"])
    def test_weight_overflow_exits_2(self, capsys, tmp_path, flag):
        # each weight is finite but their total is not; it once warned and
        # then failed as "row sums do not match row marginal"
        heavy = tmp_path / "heavy.csv"
        heavy.write_text("1e308,0.0,1.0\n1e308,1.0,0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "ot", str(heavy), str(heavy), flag)
        assert code == 2
        assert out == ""
        assert "overflow" in err and "total mass is not finite" in err

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
        # ot/plans holds the exact bytes each of these plan files must keep
        plan = tmp_path / "plan.csv"
        for source, target, flags, pinned in [
                ("nested_a", "nested_b", ["--nested", "--beta", "0"], "nested_beta0"),
                ("nested_a", "nested_b", ["--nested", "--beta", "0.4"], "nested_beta04"),
                ("uniform4", "violating4", ["--beta", "0.4"], "violating_beta04")]:
            code, _, _ = run(capsys, "ot", str(OT / f"{source}.csv"),
                             str(OT / f"{target}.csv"), *flags, "--plan", str(plan))
            assert code == 0
            assert plan.read_bytes() == (OT / "plans" / f"{pinned}.csv").read_bytes()

    def test_broken_plan_exits_3(self, capsys, monkeypatch):
        # a solver whose plan leaves half of every demand unrouted
        solve = ot._ssp

        def half(*args):
            cost, flows, pot = solve(*args)
            return cost, flows / 2, pot
        monkeypatch.setattr(ot, "_ssp", half)
        code, out, err = run(capsys, "ot", str(OT / "uniform4.csv"),
                             str(OT / "violating4.csv"), "--beta", "0.4")
        assert code == 3
        assert out == ""
        assert err.startswith("error: plan misses its marginals: a column by 0.")

    def test_search_cap_exits_3(self, capsys, monkeypatch):
        # this balanced problem needs two searches after the column
        # reduction; the first leaves 0.15 unrouted
        monkeypatch.setattr(ot, "_search_cap", lambda n, m: 1)
        code, out, err = run(capsys, "ot", str(OT / "uniform4.csv"),
                             str(OT / "violating4.csv"))
        assert (code, out) == (3, "")
        assert err == ("error: no optimal plan after 1 shortest-path searches: "
                       "0.15 mass unrouted\n")

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
        proc = run_process("ot", str(src), str(tgt), "--beta", beta, timeout=60)
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

    def test_zero_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                             "--samples", "0")
        assert code == 2
        assert out == ""
        assert "at least one sample" in err

    # About 10**15 elements: far beyond any address space, so numpy
    # refuses the request before touching memory, with a MemoryError.
    # 10**20 is past numpy's index range, where it raises a ValueError.
    # For 2**63 numpy's arange returns an empty array instead.
    @pytest.mark.parametrize("sizes", [("--samples", str(10 ** 15)),
                                       ("--samples", "10", "--k", str(10 ** 15)),
                                       ("--samples", str(10 ** 20), "--k", "4"),
                                       ("--samples", "10", "--k", str(10 ** 20)),
                                       ("--samples", str(2 ** 63), "--k", "2")])
    def test_size_too_large_to_allocate_exits_2(self, capsys, sizes):
        code, out, err = run(capsys, "cmi", "--joint", str(CMI / "ln2.csv"),
                             *sizes)
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: input too large to allocate: .*\n", err)

    def test_joint_too_large_to_allocate_exits_2(self, capsys, tmp_path):
        # numpy refuses this shape with a ValueError, not a MemoryError
        joint = tmp_path / "joint.csv"
        joint.write_text(f"0,0,0,0.5\n{10 ** 15},{10 ** 15},1,0.5\n")
        code, out, err = run(capsys, "cmi", "--joint", str(joint))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "allocate" in err

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

    @pytest.mark.parametrize("huge, code, stdout, steps, error", [
        pytest.param("target", 3, "", "2", "objective not finite",
                     id="target-3-"),
        pytest.param("source", 0, "cnce -0.001956345844\nse 0.01707876618\n",
                     "2", None,
                     id="source-0-cnce -0.001956345844\nse 0.01707876618\n"),
        pytest.param("target", 3, "", "0", "scorer produced non-finite values",
                     id="target-3-untrained"),
    ])
    def test_overflowing_features_print_no_warning(self, tmp_path, huge, code,
                                                   stdout, steps, error):
        # A first value of 1e300 overflows the squared distances of the
        # positive pairing and, as the anchor, the scorer's scores; numpy
        # once warned about each on stderr. The overflow exits 3 whether
        # the scorer trains first or not.
        files = {"source": OT / "nested_b.csv", "target": OT / "nested_b.csv"}
        text = files[huge].read_text()
        files[huge] = tmp_path / "huge.csv"
        files[huge].write_text("1e300" + text[text.index(","):])
        proc = run_process("cmi", "--source", str(files["source"]),
                           "--target", str(files["target"]),
                           "--train-steps", steps, timeout=60)
        assert proc.returncode == code
        assert proc.stdout == stdout
        if code:
            assert re.fullmatch(rf"error: .*{error}\n", proc.stderr)
        else:
            assert proc.stderr == ""

    @pytest.mark.parametrize("steps, error", [
        ("0", "scorer produced non-finite values"),
        ("2", "scorer training diverged at step 0: objective not finite"),
    ])
    def test_overflowing_norm_prints_no_warning(self, tmp_path, steps, error):
        # 40 rows take pair_positive's screen, but ||a||^2 of target row 0
        # and ||b||^2 of half the source rows overflow, so the direct sums
        # pair them; the scores then overflow and the run exits 3.
        rng = np.random.default_rng(8)
        zs, zt = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
        zt[0, 0] = zs[:20, 0] = 1e160
        for name, rows in (("src.csv", zs), ("tgt.csv", zt)):
            (tmp_path / name).write_text("".join(
                ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        proc = run_process("cmi", "--source", str(tmp_path / "src.csv"),
                           "--target", str(tmp_path / "tgt.csv"),
                           "--train-steps", steps, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {error}\n"

    def test_single_row_batch_exits_2_before_training(self, capsys, tmp_path):
        # the batch is built first, so a scorer that would diverge on it
        # never trains
        path = tmp_path / "one.csv"
        path.write_text("1e300,1.0\n")
        code, out, err = run(capsys, "cmi", "--source", str(path),
                             "--target", str(path), "--train-steps", "2")
        assert (code, out) == (2, "")
        assert err == "error: batch of size 1 has no negatives\n"

    def test_negative_train_steps_exit_2(self, capsys):
        path = str(OT / "nested_b.csv")
        code, out, err = run(capsys, "cmi", "--source", path, "--target", path,
                             "--train-steps", "-1")
        assert (code, out) == (2, "")
        assert err == "error: steps must be nonnegative\n"

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

    def test_huge_information_term_bounds_to_zero(self, capsys, tmp_path):
        # exp(R - H) overflowed here once: a traceback, exit 1
        inputs = tmp_path / "b.cfg"
        inputs.write_text(
            "label_entropy=0.5\nsource_specific_info=1e15\n"
            "target_specific_info=0.0\ncross_info_given_source=0.0\n"
            "cross_info_given_target=0.0\n")
        code, out, _ = run(capsys, "bound", str(inputs))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines["source_specific"] == "0.000000000"
        assert lines["unified"] == "0.000000000"

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
        from driftlab.evalstats import BoundInputs, bayes_bound
        code, out, _ = run(capsys, "bound",
                           str(FIXTURES / "bound" / "equal_ln2.cfg"),
                           "--format", "structured")
        assert code == 0
        h = math.log(2)
        want = bayes_bound(BoundInputs(h, h, h, h, h, num_classes=2))
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


@pytest.mark.parametrize("command", ["ot", "cmi-features"])
def test_empty_input_names_path(capsys, tmp_path, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("# comments and blank lines only\n\n")
    code, out, err = run(capsys, *READERS[command](str(empty)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(empty) in err


# ---------------------------------------------------------------------
# unwritable outputs
# ---------------------------------------------------------------------

# Each output flag with the command line it is appended to. The
# checkpoint is written before the report, so a failed checkpoint
# leaves the report path untouched.
TOY_TRAIN = ["--config", str(FIXTURES / "train" / "toy.cfg"),
             "--set", "epochs=0", "--set", "n_per_domain=8"]
WRITERS = {
    "--report": lambda tmp: ["train", *TOY_TRAIN],
    "--checkpoint": lambda tmp: ["train", *TOY_TRAIN,
                                 "--report", str(tmp / "report.json")],
    "--plan": lambda tmp: ["ot", str(OT / "uniform4.csv"),
                           str(OT / "violating4.csv")],
    "--out-dir": lambda tmp: ["sweep", *TOY_TRAIN, "--values", "0.2,0.5"],
}
# A file path fails on a directory, under a regular file and under a
# missing directory; a directory path (--out-dir) fails on a regular
# file and under one, and its missing parents are made.
UNWRITABLE = [(flag, where) for flag in sorted(WRITERS)
              for where in (("file", "under-file") if flag == "--out-dir"
                            else ("directory", "under-file", "missing-parent"))]


@pytest.mark.parametrize("flag,where", UNWRITABLE)
def test_unwritable_output_exits_2(capsys, tmp_path, flag, where):
    regular = tmp_path / "regular.txt"
    regular.write_text("")
    target = {"directory": tmp_path, "file": regular,
              "under-file": regular / "out",
              "missing-parent": tmp_path / "no_such_dir" / "out"}[where]
    argv = [*WRITERS[flag](tmp_path), flag, str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
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


# ---------------------------------------------------------------------
# fuzzing: the exit-code contract holds for any file and flag value
# ---------------------------------------------------------------------

FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", str(10 ** 15), "1e300")
# Fields a fuzzed train or sweep may set. A later --set of the same key
# wins, so epochs and n_per_domain, which every fuzzed run pins last,
# are left out, and each field is set at most once.
FREE_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig)
                    if f.name not in ("epochs", "n_per_domain"))
# Fields that hold an 'a:b' class ratio; each side is drawn on its own.
RATIO_FIELDS = ("source_ratio", "target_ratio")
# Valid inputs of each kind; the fuzzer corrupts some of their fields.
TEMPLATES = {
    "config": FIXTURES / "train" / "toy.cfg",
    # measures of three widths and sizes: five 3-D atoms, four 1-D atoms
    # and seven 2-D atoms; --beta 0 solves them balanced, 0.4 relaxed
    "measure": OT / "nested_a.csv",
    "scalar_measure": OT / "uniform4.csv",
    "plane_measure": OT / "plane7.csv",
    "joint": CMI / "ln2.csv",
    "features": OT / "nested_b.csv",
    "table": FIXTURES / "toy_two_methods.csv",
    "bound": FIXTURES / "bound" / "equal_ln2.cfg",
}


def has_non_finite(text):
    """Whether any field of ``text`` (bytes) parses as NaN or infinity."""
    for token in re.split(rb"[,=\s]+", text):
        try:
            if not math.isfinite(float(token)):
                return True
        except ValueError:
            pass
    return False


def fuzz_file(draw, kind):
    """Random bytes, or else a valid file of ``kind`` with up to three
    of its numbers replaced by fuzz values (labels stay, so that a
    label spelled "nan" is not mistaken for a value)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    parts = re.split(r"([,=\n])", TEMPLATES[kind].read_text())
    numbers = [i for i, part in enumerate(parts)
               if re.fullmatch(r"-?[0-9][0-9.e+-]*", part)]
    for _ in range(draw(st.integers(0, 3))):
        parts[draw(st.sampled_from(numbers))] = draw(st.sampled_from(FUZZ_VALUES))
    return "".join(parts).encode()


def fuzz_argv(draw, command, a, b, report):
    """One command line for ``command`` over the paths ``a`` and ``b``.

    Returns the argv, the flag values drawn and the kinds of file the
    command reads from ``a`` and ``b``.
    """
    drawn = []

    def value(valid, choices=FUZZ_VALUES):
        drawn.append(draw(st.one_of(st.just(valid), st.sampled_from(choices))))
        return drawn[-1]

    def field_value(key, valid):
        if key in RATIO_FIELDS:
            return f"{value('1')}:{value('1')}"
        return value(valid)

    def overrides(swept=None):
        keys = draw(st.lists(st.sampled_from(FREE_FIELDS), max_size=2,
                             unique=True).filter(lambda ks: swept not in ks))
        return [x for key in keys for x in ("--set", f"{key}={field_value(key, '1')}")]

    # Any config that parses trains for zero epochs on 8 points.
    tiny = ["--set", "epochs=0", "--set", "n_per_domain=8"]
    if command == "train":
        kinds = ("config",)
        argv = ["train", "--config", a, "--report", report, *overrides(), *tiny]
    elif command == "sweep":
        kinds = ("config",)
        swept = draw(st.sampled_from(FREE_FIELDS))
        values = ",".join(field_value(swept, "0.5")
                          for _ in range(draw(st.integers(1, 3))))
        argv = ["sweep", "--config", a, "--field", swept, "--values", values,
                *overrides(swept), *tiny]
    elif command == "ot":
        kinds = tuple(draw(st.sampled_from(["measure", "scalar_measure",
                                            "plane_measure"]))
                      for _ in "ab")
        argv = ["ot", a, b, "--beta", value("0.4")]
        if draw(st.booleans()):
            argv.append("--nested")
    elif command == "cmi" and draw(st.booleans()):
        kinds = ("joint",)
        argv = ["cmi", "--joint", a, "--k", value("4"), "--seed", value("1")]
        if draw(st.booleans()):
            argv += ["--samples", value("20")]
    elif command == "cmi":
        kinds = ("features", "features")
        # 10**15 ascent steps would run, not fail, on a valid file
        steps = value("2", [v for v in FUZZ_VALUES if v != str(10 ** 15)])
        argv = ["cmi", "--source", a, "--target", b, "--k", value("4"),
                "--train-steps", steps]
    else:
        kinds = ("table",) if command == "friedman" else ("bound",)
        argv = [command, a]
    if draw(st.booleans()):
        argv += ["--format", "structured"]
    return argv, drawn, kinds


@given(st.sampled_from(["train", "sweep", "ot", "cmi", "friedman", "bound"]),
       st.data())
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_inputs_keep_the_exit_code_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        argv, drawn, kinds = fuzz_argv(data.draw, command, *paths,
                                       os.path.join(tmp, "report.json"))
        files = [fuzz_file(data.draw, kind) for kind in kinds]
        for path, content in zip(paths, files):
            Path(path).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    # Nothing on success; otherwise one error: line, which argparse
    # precedes with its usage text when a flag does not parse.
    lines = err.getvalue().split("\n")
    if code == 0:
        assert lines == [""], (argv, err.getvalue())
    else:
        assert lines[-1] == "" and "error: " in lines[-2], (argv, err.getvalue())
        assert all(line.startswith(("usage: ", " ")) for line in lines[:-2]), (
            argv, err.getvalue())
    non_finite = any(has_non_finite(x) for x in [*files, *map(str.encode, drawn)])
    assert not (code == 0 and non_finite), (argv, files, out.getvalue())
