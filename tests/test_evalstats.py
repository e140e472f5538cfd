"""Rank aggregation, Friedman statistics, Bayes bounds, and report emission."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.errors import ContractError, DomainError, ParseError
from driftlab.evalstats import (
    AccuracyTable,
    BoundInputs,
    RankTable,
    accuracy,
    bayes_bound,
    competition_ranks,
    emit_report,
    friedman,
    load_accuracy_table,
    load_rank_table,
    save_accuracy_table,
    save_rank_table,
    threshold_th,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PUBLISHED = {
    "office31": (83.58, 3.97, (30, 180)),
    "officehome": (254.62, 31.7, (27, 324)),
    "visda": (244.69, 36.56, (25, 300)),
    "domainnet": (249.94, 83.17, (22, 264)),
    "digits": (69.77, 11.48, (22, 66)),
}


def table(values, methods=None, tasks=None):
    values = np.asarray(values, dtype=np.float64)
    m, n = values.shape
    methods = methods or [f"m{i}" for i in range(m)]
    tasks = tasks or [f"t{j}" for j in range(n)]
    return AccuracyTable(methods, tasks, values)


class TestAccuracy:
    def test_seven_of_ten(self):
        preds = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 2, 0, 1])
        assert accuracy(preds, labels) == 70.0

    def test_all_and_none(self):
        assert accuracy([1, 1], [1, 1]) == 100.0
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            accuracy([1, 2], [1, 2, 3])


class TestThreshold:
    def test_negative_clamps_to_zero(self):
        assert threshold_th(-0.3, 5) == 0.0

    def test_upper_clamp_binary(self):
        assert threshold_th(0.9, 2) == 0.5

    def test_interior_untouched(self):
        assert threshold_th(0.4, 3) == 0.4

    def test_bad_class_count(self):
        with pytest.raises(ContractError):
            threshold_th(0.3, 1)


class TestBayesBound:
    def test_binary_all_zero_terms(self):
        inp = BoundInputs(math.log(2.0), 0.0, 0.0, 0.0, 0.0, 0.0, 2)
        out = bayes_bound(inp)
        for key in ("source_specific", "target_specific",
                    "cross_given_source", "cross_given_target", "unified"):
            assert out[key] == pytest.approx(0.5, abs=1e-9)

    def test_terms_at_entropy_zero_out(self):
        h = math.log(2.0)
        out = bayes_bound(BoundInputs(h, h, h, h, h, 0.0, 2))
        assert out["unified"] == pytest.approx(0.0, abs=1e-9)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in out.values())

    def test_three_class_worked_value(self):
        # independent scalar reference, written out longhand
        h = math.log(3.0)
        expected = 1.0 - math.exp(-h + 0.2)
        assert expected == pytest.approx(0.5928657472799435, abs=1e-12)
        out = bayes_bound(BoundInputs(h, 0.2, 0.2, 0.2, 0.2, 0.0, 3))
        for key in ("source_specific", "target_specific",
                    "cross_given_source", "cross_given_target", "unified"):
            assert out[key] == pytest.approx(expected, abs=1e-9)

    def test_delta_lands_on_last_term_only(self):
        base = bayes_bound(BoundInputs(1.0, 0.1, 0.2, 0.3, 0.4, 0.0, 4))
        shifted = bayes_bound(BoundInputs(1.0, 0.1, 0.2, 0.3, 0.4, 0.25, 4))
        folded = bayes_bound(BoundInputs(1.0, 0.1, 0.2, 0.3, 0.65, 0.0, 4))
        assert shifted["cross_given_target"] == folded["cross_given_target"]
        for key in ("source_specific", "target_specific", "cross_given_source"):
            assert shifted[key] == base[key]

    def test_dict_input_accepted(self):
        out = bayes_bound({
            "label_entropy": math.log(2.0),
            "source_specific_info": 0.0,
            "target_specific_info": 0.0,
            "cross_info_given_source": 0.0,
            "cross_info_given_target": 0.0,
        })
        assert out["unified"] == pytest.approx(0.5, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ContractError):
            BoundInputs(-1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ContractError):
            BoundInputs(1.0, 0.0, 0.0, 0.0, 0.0, -0.1)
        with pytest.raises(ContractError):
            BoundInputs(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1)

    @given(
        st.floats(0.0, 3.0),
        st.lists(st.floats(0.0, 4.0), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
        st.integers(2, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_unified_never_looser_and_range(self, h, terms, delta, k):
        out = bayes_bound(BoundInputs(h, *terms, delta, k))
        cap = 1.0 - 1.0 / k
        individuals = [out[key] for key in out if key != "unified"]
        assert all(0.0 <= v <= cap + 1e-12 for v in out.values())
        assert out["unified"] <= min(individuals) + 1e-12

    @given(
        st.floats(0.5, 2.0),
        st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4),
        st.integers(0, 3),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_more_information_never_raises_a_bound(self, h, terms, which, bump):
        before = bayes_bound(BoundInputs(h, *terms, 0.0, 3))
        bigger = list(terms)
        bigger[which] += bump
        after = bayes_bound(BoundInputs(h, *bigger, 0.0, 3))
        for key in before:
            assert after[key] <= before[key] + 1e-12


class TestCompetitionRanks:
    def test_shared_top_skips(self):
        t = table([[100.0], [100.0], [99.8]])
        r = competition_ranks(t)
        assert r.ranks[:, 0].tolist() == [1.0, 1.0, 3.0]

    def test_strictly_decreasing_column(self):
        t = table([[90.0], [80.0], [70.0], [60.0]])
        r = competition_ranks(t)
        assert r.ranks[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=12),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_competition_definition(self, scores, ncols):
        vals = np.tile(np.array(scores, dtype=float)[:, None] / 10.0, (1, ncols))
        r = competition_ranks(table(vals))
        col = vals[:, 0]
        for i in range(len(scores)):
            assert r.ranks[i, 0] == 1 + np.sum(col > col[i])
        assert r.ranks.min() == 1.0


class TestFixtures:
    def test_fixture_grids_match_recomputed_ranks(self):
        for name in PUBLISHED:
            acc = load_accuracy_table(FIXTURES / f"{name}_accuracy.csv")
            rnk = load_rank_table(FIXTURES / f"{name}_ranks.csv")
            computed = competition_ranks(acc)
            lookup = {m: i for i, m in enumerate(rnk.methods)}
            for i, method in enumerate(acc.methods):
                assert np.array_equal(
                    computed.ranks[i], rnk.ranks[lookup[method]]
                ), f"{name}: rank row differs for {method}"

    def test_best_office31_method_leads(self):
        rnk = load_rank_table(FIXTURES / "office31_ranks.csv")
        best = rnk.methods[int(np.argmin(rnk.avg_ranks))]
        assert rnk.avg_ranks.min() == pytest.approx(8.0 / 7.0, abs=1e-12)
        assert rnk.printed_avg[rnk.methods.index(best)] == pytest.approx(1.1)

    def test_reported_route_reproduces_published_digits(self):
        rnk = load_rank_table(FIXTURES / "digits_ranks.csv")
        fr = friedman(rnk, averages="reported")
        assert fr.chi2 == pytest.approx(69.77, abs=0.01)
        assert fr.f_stat == pytest.approx(11.48, abs=0.01)
        assert fr.dof == (22, 66)

    def test_exact_route_sits_near_reported_digits(self):
        # means of the printed ranks, before their one-decimal rounding
        rnk = load_rank_table(FIXTURES / "digits_ranks.csv")
        fr = friedman(rnk)
        assert fr.chi2 == pytest.approx(69.707, abs=0.01)
        assert fr.f_stat == pytest.approx(11.431, abs=0.01)


class TestFriedman:
    def test_two_method_rational_fixture(self):
        # A beats B on 9 of 10 tasks: chi2 = 10 * (1 - 2/10)^2 = 6.4, F = 16
        ranks = np.ones((2, 10))
        ranks[1, :] = 2.0
        ranks[0, 0], ranks[1, 0] = 2.0, 1.0
        fr = friedman(RankTable(["A", "B"], [f"t{i}" for i in range(10)], ranks))
        assert fr.chi2 == pytest.approx(6.4, abs=1e-12)
        assert fr.f_stat == pytest.approx(16.0, abs=1e-12)
        assert fr.dof == (1, 9)

    def test_perfect_agreement_is_degenerate(self):
        ranks = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        with pytest.raises(DomainError) as exc:
            friedman(RankTable(["A", "B"], [f"t{i}" for i in range(6)], ranks))
        # the chi-square form saturates at n * (m - 1) = 6
        assert exc.value.chi2 == pytest.approx(6.0, abs=1e-12)

    def test_method_permutation_invariance(self):
        rng = np.random.default_rng(11)
        base = np.stack([rng.permutation(6) + 1.0 for _ in range(5)], axis=1)
        t0 = friedman(RankTable([f"m{i}" for i in range(6)],
                                [f"t{j}" for j in range(5)], base))
        perm = rng.permutation(6)
        t1 = friedman(RankTable([f"m{i}" for i in perm],
                                [f"t{j}" for j in range(5)], base[perm]))
        assert t1.chi2 == pytest.approx(t0.chi2, abs=1e-12)
        assert t1.f_stat == pytest.approx(t0.f_stat, abs=1e-12)

    def test_requires_rank_table(self):
        with pytest.raises(ContractError):
            friedman(np.ones((3, 4)))

    def test_reported_route_needs_reported_column(self):
        ranks = RankTable(["A", "B"], ["t0"], np.array([[1.0], [2.0]]))
        with pytest.raises(ContractError):
            friedman(ranks, averages="reported")

    def test_bad_averages_flag(self):
        ranks = RankTable(["A", "B"], ["t0"], np.array([[1.0], [2.0]]))
        with pytest.raises(ContractError):
            friedman(ranks, averages="rounded")

    def test_as_report_keys(self):
        ranks = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        fr = friedman(RankTable(["a", "b", "c"], ["t0", "t1"], ranks))
        rep = fr.as_report()
        assert set(rep) == {"chi2", "f_stat", "dof_between", "dof_residual"}


GOLDEN_REPORT = """{
  "chi2": 6.4,
  "dof_between": 1,
  "dof_residual": 9,
  "f_stat": 16.0,
  "label": "toy"
}
"""


class TestEmitReport:
    def test_golden_bytes(self):
        report = {"label": "toy", "f_stat": 16.0, "chi2": 6.4,
                  "dof_between": 1, "dof_residual": 9}
        assert emit_report(report) == GOLDEN_REPORT

    def test_reemission_is_byte_identical(self, tmp_path):
        report = {"outer": {"values": [1.0, 2.5], "n": 3}, "tag": "x"}
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit_report(report, p1)
        emit_report(json.loads(p1.read_text()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_values_normalized(self):
        text = emit_report({"v": np.float64(1.5), "n": np.int64(2),
                            "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)})
        assert '"v": 1.5' in text and '"n": 2' in text and '"flag": true' in text

    def test_nan_refused(self):
        with pytest.raises(ContractError):
            emit_report({"v": float("nan")})
        with pytest.raises(ContractError):
            emit_report({"v": [1.0, float("inf")]})

    def test_non_dict_and_bad_keys(self):
        with pytest.raises(ContractError):
            emit_report([1, 2])
        with pytest.raises(ContractError):
            emit_report({1: "x"})

    def test_unserializable_value_named_by_path(self):
        with pytest.raises(ContractError, match="report.box"):
            emit_report({"box": object()})


class TestTableIO:
    def test_accuracy_roundtrip(self, tmp_path):
        t = table([[70.0, 80.5], [60.25, 90.0]], ["alpha", "beta"], ["t0", "t1"])
        path = tmp_path / "acc.csv"
        save_accuracy_table(t, path)
        back = load_accuracy_table(path)
        assert back.methods == t.methods and back.tasks == t.tasks
        assert np.array_equal(back.values, t.values)

    def test_rank_roundtrip_keeps_reported_column(self, tmp_path):
        ranks = RankTable(["a", "b"], ["t0", "t1"],
                          np.array([[1.0, 2.0], [2.0, 1.0]]),
                          printed_avg=np.array([1.5, 1.5]))
        path = tmp_path / "ranks.csv"
        save_rank_table(ranks, path)
        back = load_rank_table(path)
        assert back.printed_avg is not None
        assert np.allclose(back.printed_avg, [1.5, 1.5])
        assert np.array_equal(back.ranks, ranks.ranks)

    def test_tab_delimited_accepted(self, tmp_path):
        path = tmp_path / "acc.tsv"
        path.write_text("method\tt0\tt1\nalpha\t70\t80\nbeta\t90\t60\n")
        t = load_accuracy_table(path)
        assert t.values[1, 0] == 90.0

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,t0,t1\nalpha,70,80\nbeta,90\n")
        with pytest.raises(ParseError, match="line 3"):
            load_accuracy_table(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,t0\nalpha,70\nbeta,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_accuracy_table(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("method,t0\n")
        with pytest.raises(ParseError):
            load_accuracy_table(path)

    def test_out_of_range_value_wrapped(self, tmp_path):
        path = tmp_path / "over.csv"
        path.write_text("method,t0\nalpha,70\nbeta,101\n")
        with pytest.raises(ParseError):
            load_accuracy_table(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("# comment\nmethod,t0\n\nalpha,70\nbeta,60\n")
        t = load_accuracy_table(path)
        assert t.num_methods == 2


class TestTableValidation:
    def test_duplicate_method(self):
        with pytest.raises(ContractError):
            table([[1.0], [2.0]], methods=["a", "a"])

    def test_single_method_rejected(self):
        with pytest.raises(ContractError):
            AccuracyTable(["only"], ["t0"], np.array([[50.0]]))

    def test_out_of_range_rank(self):
        with pytest.raises(ContractError):
            RankTable(["a", "b"], ["t0"], np.array([[0.5], [2.0]]))
        with pytest.raises(ContractError):
            RankTable(["a", "b"], ["t0"], np.array([[1.0], [3.0]]))

    def test_reported_average_must_match_grid(self):
        with pytest.raises(ContractError):
            RankTable(["a", "b"], ["t0", "t1"],
                      np.array([[1.0, 1.0], [2.0, 2.0]]),
                      printed_avg=np.array([1.3, 2.0]))
