"""Rank aggregation, Friedman statistics, Bayes bounds, and report emission."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.errors import ContractError, DimensionError, ParseError
from driftlab.evalstats import (
    BoundInputs,
    RankTable,
    accuracy,
    bayes_bound,
    competition_ranks,
    emit_report,
    friedman,
    load_ranks,
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
        r = competition_ranks([[100.0], [100.0], [99.8]])
        assert r[:, 0].tolist() == [1.0, 1.0, 3.0]

    def test_strictly_decreasing_column(self):
        r = competition_ranks([[90.0], [80.0], [70.0], [60.0]])
        assert r[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    @given(st.lists(st.lists(st.integers(0, 1000), min_size=3, max_size=3),
                    min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_competition_definition(self, scores):
        # each cell counts the cells above it in its own column only
        vals = np.array(scores, dtype=float) / 10.0
        r = competition_ranks(vals)
        assert r.dtype == np.float64 and r.shape == vals.shape
        for i, j in np.ndindex(vals.shape):
            assert r[i, j] == 1 + np.sum(vals[:, j] > vals[i, j])
        assert (r.min(axis=0) == 1.0).all()


class TestFixtures:
    def test_fixture_grids_match_recomputed_ranks(self):
        for name in PUBLISHED:
            # an accuracy table loads already ranked per task
            computed = load_ranks(FIXTURES / f"{name}_accuracy.csv")
            rnk = load_ranks(FIXTURES / f"{name}_ranks.csv")
            assert computed.printed_avg is None
            assert rnk.printed_avg is not None
            lookup = {m: i for i, m in enumerate(rnk.methods)}
            for i, method in enumerate(computed.methods):
                assert np.array_equal(
                    computed.ranks[i], rnk.ranks[lookup[method]]
                ), f"{name}: rank row differs for {method}"

    def test_best_office31_method_leads(self):
        rnk = load_ranks(FIXTURES / "office31_ranks.csv")
        best = rnk.methods[int(np.argmin(rnk.avg_ranks))]
        assert rnk.avg_ranks.min() == pytest.approx(8.0 / 7.0, abs=1e-12)
        assert rnk.printed_avg[rnk.methods.index(best)] == pytest.approx(1.1)

    def test_reported_route_reproduces_published_digits(self):
        rnk = load_ranks(FIXTURES / "digits_ranks.csv")
        fr = friedman(rnk, averages="reported")
        assert fr["chi2"] == pytest.approx(69.77, abs=0.01)
        assert fr["f_stat"] == pytest.approx(11.48, abs=0.01)
        assert (fr["dof_between"], fr["dof_residual"]) == (22, 66)

    def test_exact_route_sits_near_reported_digits(self):
        # means of the printed ranks, before their one-decimal rounding
        rnk = load_ranks(FIXTURES / "digits_ranks.csv")
        fr = friedman(rnk)
        assert fr["chi2"] == pytest.approx(69.707, abs=0.01)
        assert fr["f_stat"] == pytest.approx(11.431, abs=0.01)


class TestFriedman:
    def test_two_method_rational_fixture(self):
        # A beats B on 9 of 10 tasks: chi2 = 10 * (1 - 2/10)^2 = 6.4, F = 16
        ranks = np.ones((2, 10))
        ranks[1, :] = 2.0
        ranks[0, 0], ranks[1, 0] = 2.0, 1.0
        fr = friedman(RankTable(["A", "B"], [f"t{i}" for i in range(10)], ranks))
        assert fr["chi2"] == pytest.approx(6.4, abs=1e-12)
        assert fr["f_stat"] == pytest.approx(16.0, abs=1e-12)
        assert (fr["dof_between"], fr["dof_residual"]) == (1, 9)

    def test_perfect_agreement_is_degenerate(self):
        ranks = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        fr = friedman(RankTable(["A", "B"], [f"t{i}" for i in range(6)], ranks))
        assert fr["f_stat"] is None
        # the chi-square form saturates at n * (m - 1) = 6
        assert fr["chi2"] == pytest.approx(6.0, abs=1e-12)

    def test_method_permutation_invariance(self):
        rng = np.random.default_rng(11)
        base = np.stack([rng.permutation(6) + 1.0 for _ in range(5)], axis=1)
        t0 = friedman(RankTable([f"m{i}" for i in range(6)],
                                [f"t{j}" for j in range(5)], base))
        perm = rng.permutation(6)
        t1 = friedman(RankTable([f"m{i}" for i in perm],
                                [f"t{j}" for j in range(5)], base[perm]))
        assert t1["chi2"] == pytest.approx(t0["chi2"], abs=1e-12)
        assert t1["f_stat"] == pytest.approx(t0["f_stat"], abs=1e-12)

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

    def test_tied_methods_leave_both_forms_undefined(self):
        # competition ranks of a full tie are all 1, below the null mean
        # rank 1.5, so the chi-square form would be -5 * n
        for n in (1, 4):
            ranks = np.ones((2, n))
            fr = friedman(RankTable(["A", "B"], [f"t{j}" for j in range(n)],
                                    ranks))
            assert (fr["chi2"], fr["f_stat"]) == (None, None)
            assert (fr["dof_between"], fr["dof_residual"]) == (1, n - 1)

    def test_rounded_reported_average_can_leave_chi2_undefined(self):
        # (1.5, 1.45) is within rounding of the exact (1.5, 1.5), but its
        # sum of squares falls below the null value m(m + 1)^2 / 4 = 4.5
        ranks = RankTable(["a", "b"], ["t0", "t1"],
                          np.array([[1.0, 2.0], [2.0, 1.0]]),
                          printed_avg=np.array([1.5, 1.45]))
        fr = friedman(ranks, averages="reported")
        assert (fr["chi2"], fr["f_stat"]) == (None, None)
        assert friedman(ranks)["chi2"] == 0.0

    def test_one_task_leaves_f_undefined(self):
        # the F form has (m - 1)(n - 1) = 0 residual degrees of freedom;
        # shared ranks keep its denominator n(m - 1) - chi2 = 0.5 positive
        ranks = RankTable(["a", "b", "c"], ["t0"],
                          np.array([[1.0], [2.5], [2.5]]))
        fr = friedman(ranks)
        assert fr["chi2"] == pytest.approx(1.5, abs=1e-12)
        assert fr["f_stat"] is None
        assert fr["dof_residual"] == 0

    def test_report_keys(self):
        ranks = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        rep = friedman(RankTable(["a", "b", "c"], ["t0", "t1"], ranks))
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
        # an accuracy table loads ranked per task
        path = tmp_path / "acc.csv"
        path.write_text("method,t0,t1\nalpha,70.0,80.5\nbeta,60.25,90.0\n")
        back = load_ranks(path)
        assert back.methods == ["alpha", "beta"] and back.tasks == ["t0", "t1"]
        assert np.array_equal(back.ranks, competition_ranks(
            [[70.0, 80.5], [60.25, 90.0]]))
        assert back.printed_avg is None

    def test_rank_roundtrip_keeps_reported_column(self, tmp_path):
        ranks = RankTable(["a", "b"], ["t0", "t1"],
                          np.array([[1.0, 2.0], [2.0, 1.0]]),
                          printed_avg=np.array([1.5, 1.5]))
        path = tmp_path / "ranks.csv"
        path.write_text("method,t0,t1,avg_rank\na,1,2,1.5\nb,2,1,1.5\n")
        back = load_ranks(path)
        assert back.tasks == ["t0", "t1"]
        assert back.printed_avg is not None
        assert np.allclose(back.printed_avg, [1.5, 1.5])
        assert np.array_equal(back.ranks, ranks.ranks)

    def test_kind_is_set_by_the_avg_rank_header(self, tmp_path):
        # the same cells read as ranks under an avg_rank header and as
        # accuracies (higher is better) without one
        ranked, scored = tmp_path / "ranked.csv", tmp_path / "scored.csv"
        ranked.write_text("method,t0,avg_rank\na,1,1\nb,2,2\n")
        scored.write_text("method,t0,t1\na,1,1\nb,2,2\n")
        assert np.array_equal(load_ranks(ranked).ranks, [[1.0], [2.0]])
        assert np.array_equal(load_ranks(scored).ranks,
                              [[2.0, 2.0], [1.0, 1.0]])

    def test_tab_delimited_accepted(self, tmp_path):
        path = tmp_path / "table.tsv"
        for text in ("method\tt0\tt1\nalpha\t70\t80\nbeta\t90\t60\n",
                     "method\tt0\tt1\tavg_rank\n"
                     "alpha\t2\t1\t1.5\nbeta\t1\t2\t1.5\n"):
            path.write_text(text)
            t = load_ranks(path)
            assert t.tasks == ["t0", "t1"]
            assert np.array_equal(t.ranks, [[2.0, 1.0], [1.0, 2.0]])

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("method,t0,t1\nalpha,70,80\nbeta,90\n",
                     "method,t0,t1,avg_rank\nalpha,1,2,1.5\nbeta,2\n"):
            path.write_text(text)
            with pytest.raises(ParseError, match="line 3"):
                load_ranks(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("method,t0\nalpha,70\nbeta,oops\n",
                     "method,t0,avg_rank\nalpha,1,1\nbeta,2,oops\n"):
            path.write_text(text)
            with pytest.raises(ParseError, match="line 3"):
                load_ranks(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("method,t0\n", "method,avg_rank\n",
                     # no task column
                     "method\na\nb\n", "method,avg_rank\na,1\nb,2\n"):
            path.write_text(text)
            with pytest.raises(ParseError):
                load_ranks(path)

    def test_out_of_range_value_wrapped(self, tmp_path):
        path = tmp_path / "over.csv"
        for text in ("method,t0\nalpha,70\nbeta,101\n",
                     "method,t0\nalpha,70\nbeta,-0.5\n",
                     "method,t0,avg_rank\na,1,1\nb,3,3\n",
                     # a reported average that the ranks do not give
                     "method,t0,avg_rank\na,1,1.5\nb,2,2\n"):
            path.write_text(text)
            with pytest.raises(ParseError):
                load_ranks(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("# comment\nmethod,t0\n\nalpha,70\nbeta,60\n")
        t = load_ranks(path)
        assert t.methods == ["alpha", "beta"]


    @pytest.mark.parametrize("cell", ["nan", "-nan", "inf", "-inf"])
    def test_non_finite_accuracy_rejected(self, tmp_path, cell):
        # NaN compares False, so it would rank as a tie with the best
        path = tmp_path / "acc.csv"
        path.write_text(f"method,t0,t1\nalpha,70,80\nbeta,{cell},60\n")
        with pytest.raises(ParseError, match="accuracy values must be finite"):
            load_ranks(path)


class TestTableValidation:
    def test_duplicate_method(self, tmp_path):
        with pytest.raises(ContractError, match="duplicate method name"):
            RankTable(["a", "a"], ["t0"], np.array([[1.0], [2.0]]))
        path = tmp_path / "acc.csv"
        path.write_text("method,t0\na,1\na,2\n")
        with pytest.raises(ParseError, match="duplicate method name"):
            load_ranks(path)

    def test_single_method_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="at least two methods"):
            RankTable(["only"], ["t0"], np.array([[1.0]]))
        path = tmp_path / "acc.csv"
        path.write_text("method,t0\nonly,50\n")
        with pytest.raises(ParseError, match="at least two methods"):
            load_ranks(path)

    def test_grid_shape_must_match_names(self):
        with pytest.raises(DimensionError, match="must be 2-D"):
            RankTable(["a", "b"], ["t0"], np.array([1.0, 2.0]))
        with pytest.raises(DimensionError, match="does not match"):
            RankTable(["a", "b"], ["t0", "t1"], np.array([[1.0], [2.0]]))
        with pytest.raises(ContractError, match="at least one task"):
            RankTable(["a", "b"], [], np.empty((2, 0)))

    def test_non_finite_rank_rejected(self):
        with pytest.raises(ContractError, match="rank values must be finite"):
            RankTable(["a", "b"], ["t0"], np.array([[1.0], [np.nan]]))

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
