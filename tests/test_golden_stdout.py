"""Golden CLI stdout: every subcommand on the shipped fixtures, both
--format values, compared byte for byte with fixtures/golden_stdout.json.

Regenerate the golden file (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden_stdout.py
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from driftlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden_stdout.json"
FORMATS = ("text", "structured")
REPORT_MARK = "<REPORT>"

# Feature batches for `cmi --source/--target`, written at run time. The
# values are exact binary fractions so the files are the same bytes on
# every platform.
FEATURE_ROWS = {
    "src.csv": [[((7 * i + 3 * j) % 11 - 5) / 4 for j in range(3)]
                for i in range(12)],
    "tgt.csv": [[((5 * i + 2 * j + 1) % 13 - 6) / 4 for j in range(3)]
                for i in range(12)],
}


def _cases():
    cases = {}
    for table in sorted(FIXTURES.glob("*.csv")):
        cases[f"friedman/{table.name}"] = ["friedman", str(table)]
    ot = FIXTURES / "ot"
    for a, b in (("uniform4", "contained4"), ("uniform4", "violating4"),
                 ("nested_a", "nested_b")):
        pair = [str(ot / f"{a}.csv"), str(ot / f"{b}.csv")]
        cases[f"ot/{a}-{b}/balanced"] = ["ot", *pair, "--beta", "0"]
        cases[f"ot/{a}-{b}/beta0.4"] = ["ot", *pair, "--beta", "0.4"]
        cases[f"ot/{a}-{b}/nested"] = ["ot", *pair, "--nested"]
    for joint in ("independent", "ln2"):
        path = str(FIXTURES / "cmi" / f"{joint}.csv")
        cases[f"cmi/{joint}/exact"] = ["cmi", "--joint", path]
        cases[f"cmi/{joint}/samples"] = ["cmi", "--joint", path,
                                         "--samples", "2000", "--k", "64",
                                         "--seed", "3"]
    cases["cmi/features/train5"] = ["cmi", "--source", "{tmp}/src.csv",
                                    "--target", "{tmp}/tgt.csv",
                                    "--train-steps", "5", "--seed", "2"]
    cases["bound/equal_ln2"] = ["bound",
                                str(FIXTURES / "bound" / "equal_ln2.cfg")]
    toy = ["train", "--config", str(FIXTURES / "train" / "toy.cfg"),
           "--report", "{tmp}/report.json"]
    cases["train/toy"] = toy
    cases["train/toy/no-local"] = [*toy, "--set", "use_local=false"]
    cases["train/toy/no-global"] = [*toy, "--set", "use_global=false"]
    cases["train/toy/uniform"] = [*toy, "--set", "source_ratio=uniform",
                                  "--set", "target_ratio=uniform"]
    return {f"{name}/{fmt}": argv + ["--format", fmt]
            for name, argv in cases.items() for fmt in FORMATS}


CASES = _cases()


def run_case(argv, tmp):
    """Exit code and stdout of one case, temp paths replaced by a mark."""
    for name, rows in FEATURE_ROWS.items():
        (tmp / name).write_text(
            "".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    with redirect_stdout(io.StringIO()) as out:
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    return {"exit": code,
            "stdout": out.getvalue().replace(str(tmp / "report.json"),
                                             REPORT_MARK)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, golden, tmp_path):
    assert run_case(CASES[case], tmp_path) == golden[case]


if __name__ == "__main__":
    results = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            results[case] = run_case(CASES[case], Path(tmp))
    GOLDEN.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}")
