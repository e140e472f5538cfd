"""Training-loop tests: objective composition, the two-step schedule,
stratified batching, config files, and report determinism."""

import gc
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tensorcore_reference as ref
from oracles import load_checkpoint
from driftlab import cmi, pipeline
from driftlab.cli import main
from driftlab.cmi import BilinearScorer, contrastive_from_features, pair_positive
from driftlab.data import LabeledDomain, gen_two_moons_shift
from driftlab.dualcritic import Critic, dual_objective
from driftlab.errors import ContractError, NumericError, ParseError
from driftlab.evalstats import emit_report
from driftlab.model import cross_entropy_loss, extract, predict, regularizer
from driftlab.ot import measure_normalize
from driftlab.pipeline import (
    TrainConfig,
    TrainState,
    adversarial_step,
    apply_overrides,
    canonical_config_text,
    config_hash,
    epoch_batches,
    init_state,
    make_dataset,
    rlglc_objective,
    run_experiment,
    run_sweep,
    train,
)
from driftlab.tensorcore import (
    MLP,
    OptimState,
    SplitMix64,
    add,
    as_tensor,
    backward,
    finite_diff_check,
    step,
)
from driftlab.textio import read_fields

TINY = dict(n_per_domain=60, batch_size=10, epochs=1,
            critic_steps=2, scorer_steps=2)


def tiny_config(**kw):
    return TrainConfig(**{**TINY, **kw})


def tiny_batches(cfg, seed=3):
    return epoch_batches(make_dataset(cfg), SplitMix64(seed), cfg)[0]


def objective(state, bs, bt, cfg):
    """``rlglc_objective`` on two batches, from the encoder forward and
    the pairing that ``adversarial_step`` makes."""
    zs = state.phi.forward(bs.X)
    zt = state.phi.forward(bt.X)
    pairing = pair_positive(zt.value, zs.value)
    return rlglc_objective(state, zs, zt, pairing, bs.labels, cfg)


def first_pair(data, rng, batch_size, source, target):
    """The first batch pair of an epoch under a batching spec that
    TrainConfig itself might refuse."""
    spec = SimpleNamespace(batch_size=batch_size, source_ratio=source,
                           target_ratio=target)
    return epoch_batches(data, rng, spec)[0]


# ---------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.beta == 0.4
        assert cfg.use_global and cfg.use_local

    @pytest.mark.parametrize("kw", [
        {"beta": 0.0}, {"beta": 1.0}, {"alpha": -0.1}, {"lam": -1.0},
        {"lr_model": 0.0}, {"batch_size": 1}, {"epochs": -1},
        {"critic_steps": -1}, {"feature_dim": 0}, {"n_per_domain": 3},
        {"dataset": "mnist"}, {"source_ratio": "0:5"},
        {"lr_model": math.nan}, {"lr_critic": math.inf}, {"alpha": math.nan},
        {"lam": math.inf}, {"beta": math.nan}, {"rotation_deg": math.nan},
        {"noise_sigma": math.inf},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ContractError):
            TrainConfig(**kw)

    def test_rejects_unattainable_ratio(self):
        # 1:3 of a 10-sample batch wants 2.5 class-0 rows
        with pytest.raises(ContractError):
            TrainConfig(batch_size=10, source_ratio="1:3")

    def test_uniform_ratio_accepted(self):
        cfg = TrainConfig(source_ratio="uniform", target_ratio="uniform")
        assert cfg.source_ratio == "uniform"


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(beta=0.25, lr_model=0.005, use_local=False)
        path = tmp_path / "run.cfg"
        path.write_text(canonical_config_text(cfg))
        assert read_fields(path, TrainConfig) == cfg

    def test_canonical_text_sorted(self):
        text = canonical_config_text(TrainConfig())
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)
        assert "beta=0.4" in text
        assert "use_global=true" in text

    def test_hash_tracks_content(self):
        a = config_hash(TrainConfig())
        assert a == config_hash(TrainConfig())
        assert a != config_hash(TrainConfig(beta=0.5))
        assert len(a) == 64

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nbeta=0.3\n")
        assert read_fields(path, TrainConfig).beta == 0.3

    @pytest.mark.parametrize("text,fragment", [
        ("beta 0.4\n", "line 1"),
        ("bogus_key=1\n", "bogus_key"),
        ("beta=0.4\nbeta=0.5\n", "line 2"),
        ("epochs=three\n", "three"),
    ])
    def test_parse_errors_name_the_line(self, tmp_path, text, fragment):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            read_fields(path, TrainConfig)

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_invalid_values_exit_2(self, tmp_path, capsys, command):
        # TrainConfig's own ContractError reaches the CLI unchanged
        path = tmp_path / "bad.cfg"
        path.write_text("beta=1.5\n")
        with pytest.raises(ContractError, match="beta must lie strictly"):
            read_fields(path, TrainConfig)
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--values", "0.2", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: beta must lie strictly between 0 and 1\n")

    def test_overrides(self):
        cfg = apply_overrides(TrainConfig(), ["beta=0.7", "use_local=false",
                                              "epochs=3"])
        assert cfg.beta == 0.7
        assert cfg.use_local is False
        assert cfg.epochs == 3

    def test_override_rejects_junk(self):
        with pytest.raises(ContractError):
            apply_overrides(TrainConfig(), ["beta"])
        with pytest.raises(ContractError):
            apply_overrides(TrainConfig(), ["nope=1"])
        with pytest.raises(ContractError):
            apply_overrides(TrainConfig(), ["epochs=many"])


# ---------------------------------------------------------------------
# minibatch sampling
# ---------------------------------------------------------------------

class TestSampleMinibatch:
    def test_exact_ratio_counts(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        bs, bt = first_pair(data, SplitMix64(1), 10, "5:5", "3:7")
        assert np.bincount(bs.labels).tolist() == [5, 5]
        assert np.bincount(bt.labels).tolist() == [3, 7]

    def test_uniform_counts_fluctuate(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        rng = SplitMix64(2)
        counts = []
        for _ in range(300):
            bs, _ = first_pair(data, rng, 10, "uniform", "uniform")
            counts.append(int((bs.labels == 0).sum()))
        mean = np.mean(counts)
        # source domain is balanced, so class-0 draws are Binomial-ish
        # around 5 with spread; a stratified sampler would pin 5 exactly
        assert 4.5 < mean < 5.5
        assert np.std(counts) > 0.5

    def test_batch_larger_than_domain(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        with pytest.raises(ContractError):
            first_pair(data, SplitMix64(0), 61, "uniform", "uniform")

    def test_unattainable_ratio(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        with pytest.raises(ContractError):
            first_pair(data, SplitMix64(0), 10, "1:3", "5:5")

    def test_without_replacement_within_batch(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        bs, _ = first_pair(data, SplitMix64(5), 10, "5:5", "5:5")
        rows = {tuple(r) for r in bs.X}
        assert len(rows) == 10

    @given(st.integers(min_value=1, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_counts_follow_spec(self, c0):
        cfg = tiny_config()
        data = make_dataset(cfg)
        # keep both classes reachable: the 60-sample domains are 30/30
        # (source) and 18/42 (target), so cap each side at what exists
        bs, _ = first_pair(data, SplitMix64(c0), 10, f"{c0}:{10 - c0}",
                           "5:5")
        assert int((bs.labels == 0).sum()) == min(c0, 30)


class TestEpochBatches:
    def test_epoch_partitions_source(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        pairs = epoch_batches(data, SplitMix64(9), cfg)
        # source is 30/30 with 5 class-0 rows per batch -> 6 batches
        assert len(pairs) == 6
        seen = np.sort(np.concatenate([p[0].X[:, 0] for p in pairs]))
        assert np.array_equal(seen, np.sort(data[0].X[:, 0]))

    def test_every_batch_stratified(self):
        cfg = tiny_config()
        data = make_dataset(cfg)
        for bs, bt in epoch_batches(data, SplitMix64(9), cfg):
            assert np.bincount(bs.labels).tolist() == [5, 5]
            assert np.bincount(bt.labels).tolist() == [3, 7]


# ---------------------------------------------------------------------
# the combined objective
# ---------------------------------------------------------------------

class TestObjective:
    def test_breakdown_sums_exactly(self):
        cfg = tiny_config()
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        _, bd = objective(state, bs, bt, cfg)
        parts = [v for k, v in bd.items() if k != "total"]
        assert sum(parts) == bd["total"]
        assert set(bd) == {"global", "local", "classifier", "regularizer",
                           "total"}

    def test_breakdown_matches_module_outputs(self):
        cfg = tiny_config()
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        _, bd = objective(state, bs, bt, cfg)

        zs = extract(state.phi, bs.X)
        zt = extract(state.phi, bt.X)
        want_global = dual_objective(state.critic, measure_normalize(zs),
                                     measure_normalize(zt))
        want_local = float(state.scorer.objective_graph(
            as_tensor(zs[pair_positive(zt, zs)]), as_tensor(zt)).item())
        want_cls = float(cross_entropy_loss(state.psi, zs, bs.labels).item())
        want_reg = float(regularizer([state.phi, state.psi],
                                     cfg.alpha).item())
        assert bd["global"] == pytest.approx(want_global, abs=1e-10)
        assert bd["local"] == pytest.approx(want_local, abs=1e-10)
        assert bd["classifier"] == pytest.approx(want_cls, abs=1e-10)
        assert bd["regularizer"] == pytest.approx(want_reg, abs=1e-10)

    def test_toggles_drop_terms(self):
        cfg = tiny_config(use_global=False, use_local=False,
                          use_regularizer=False)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        _, bd = objective(state, bs, bt, cfg)
        assert set(bd) == {"classifier", "total"}
        assert bd["classifier"] == bd["total"]

    def test_all_toggles_off_rejected(self):
        cfg = tiny_config(use_global=False, use_local=False,
                          use_classifier=False, use_regularizer=False)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        with pytest.raises(ContractError):
            objective(state, bs, bt, cfg)

    @given(st.tuples(*[st.booleans()] * 4).filter(any), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_backward_equals_reference_with_each_term_toggled(self, on, seed):
        # The pruned backward against the unpruned one on the descent
        # objective, for the descent's parameters and for all of them.
        names = ("use_global", "use_local", "use_classifier", "use_regularizer")
        cfg = tiny_config(seed=seed, **dict(zip(names, on)))
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg, seed=seed)
        total, _ = objective(state, bs, bt, cfg)
        model = state.phi.parameters() + state.psi.parameters()
        helpers = state.critic.parameters() + state.scorer.parameters()
        for wrt in (model, model + helpers):
            got = backward(total, wrt=wrt)
            want = ref.backward(total, wrt=wrt)
            assert all(ref.same_bits(g, r) for g, r in zip(got, want))

    def test_differentiable_wrt_model(self):
        cfg = tiny_config()
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        total, _ = objective(state, bs, bt, cfg)
        grads = backward(total, wrt=state.phi.parameters()
                         + state.psi.parameters())
        assert all(np.all(np.isfinite(g)) for g in grads)
        assert any(np.any(g != 0.0) for g in grads)

    def test_global_term_small_for_identical_batches(self):
        # same batch on both sides, near-degenerate relaxation: once the
        # critic converges its dual value should sit near zero
        cfg = tiny_config(beta=0.01, critic_steps=60)
        state = init_state(cfg)
        bs, _ = tiny_batches(cfg)
        zs = extract(state.phi, bs.X)
        from driftlab.dualcritic import train_critic
        train_critic(state.critic, measure_normalize(zs),
                     measure_normalize(zs), 60, state.optim_critic)
        _, bd = objective(state, bs, bs, cfg)
        assert abs(bd["global"]) < 0.05

    def test_composed_gradient_matches_finite_differences(self):
        # hand-sized networks so every coordinate gets checked
        cfg = TrainConfig(n_per_domain=8, batch_size=2, feature_dim=3,
                          epochs=0, target_ratio="5:5")
        rng = SplitMix64(21)
        state = TrainState(
            phi=MLP([2, 4, 3], rng.spawn(1), name="phi"),
            psi=MLP([3, 3, 2], rng.spawn(2), name="psi"),
            critic=Critic(3, rng.spawn(3), hidden=(4,), lam=cfg.lam,
                          beta=cfg.beta),
            scorer=BilinearScorer(3, rng.spawn(4), hidden=(4,)),
            optim_model=None, optim_critic=None, optim_scorer=None,
            rng=rng.spawn(5),
        )
        bs = LabeledDomain(np.array([[0.0, 1.0], [2.0, -1.0]]),
                           np.array([0, 1]))
        bt = LabeledDomain(np.array([[1.5, 0.5], [-0.5, -1.5]]),
                           np.array([0, 1]))
        params = state.phi.parameters() + state.psi.parameters()
        err = finite_diff_check(
            lambda: objective(state, bs, bt, cfg)[0], params)
        assert err < 1e-3


# ---------------------------------------------------------------------
# the two-step schedule
# ---------------------------------------------------------------------

def _values(net):
    return [p.value.copy() for p in net.parameters()]


def _same(before, after):
    return all(np.array_equal(b, a) for b, a in zip(before, after))


class TestAdversarialStep:
    def test_zero_inner_steps_moves_only_model(self):
        cfg = tiny_config(critic_steps=0, scorer_steps=0)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        critic_before = _values(state.critic)
        scorer_before = _values(state.scorer)
        phi_before = _values(state.phi)
        adversarial_step(state, bs, bt, cfg)
        assert _same(critic_before, _values(state.critic))
        assert _same(scorer_before, _values(state.scorer))
        assert not _same(phi_before, _values(state.phi))

    def test_inner_step_counts_are_exact(self):
        cfg = tiny_config(critic_steps=3, scorer_steps=4)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        adversarial_step(state, bs, bt, cfg)
        assert state.optim_critic.t == 3
        assert state.optim_scorer.t == 4
        assert state.optim_model.t == 1
        adversarial_step(state, bs, bt, cfg)
        assert state.optim_critic.t == 6
        assert state.optim_scorer.t == 8
        assert state.optim_model.t == 2

    def test_each_value_is_made_once(self, monkeypatch):
        # The helpers and the descent share one encoder forward per
        # batch and one positive pairing.
        cfg = tiny_config()
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        calls = {"forward": 0, "pair_positive": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(state.phi, "forward",
                            counted("forward", state.phi.forward))
        monkeypatch.setattr(pipeline, "pair_positive",
                            counted("pair_positive", pair_positive))
        adversarial_step(state, bs, bt, cfg)
        assert calls == {"forward": 2, "pair_positive": 1}

    def test_scorer_ascends_its_bound(self):
        cfg = tiny_config(critic_steps=0, scorer_steps=25,
                          use_global=False)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        zs = extract(state.phi, bs.X)
        zt = extract(state.phi, bt.X)
        paired = as_tensor(zs[pair_positive(zt, zs)])
        before = float(state.scorer.objective_graph(paired,
                                                    as_tensor(zt)).item())
        adversarial_step(state, bs, bt, cfg)
        after = float(state.scorer.objective_graph(paired,
                                                   as_tensor(zt)).item())
        assert after > before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_failure_names_the_term(self):
        cfg = tiny_config()
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        state.phi.parameters()[0].value[:] = 1e200
        with pytest.raises(NumericError, match="term|objective"):
            adversarial_step(state, bs, bt, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_descent_gradient_changes_nothing(self):
        # Leaky ReLUs are positively homogeneous, so scaling phi's weights
        # by 1e-310, 1e200 and 1e110 (and each bias by the product so far)
        # keeps the loss finite while the gradient at the first layer
        # grows past the float range.
        cfg = tiny_config(use_global=False, use_local=False,
                          use_regularizer=False)
        state = init_state(cfg)
        bs, bt = tiny_batches(cfg)
        adversarial_step(state, bs, bt, cfg)
        product = 1.0
        for layer, scale in zip(state.phi.layers, (1e-310, 1e200, 1e110)):
            product *= scale
            layer.w.value = layer.w.value * scale
            layer.b.value = layer.b.value * product
        total, _ = objective(state, bs, bt, cfg)
        assert math.isfinite(total.item())
        optim = state.optim_model
        before = ([p.value.copy() for p in optim.params],
                  optim.m.copy(), optim.v.copy(), optim.t)
        with pytest.raises(NumericError) as info:
            adversarial_step(state, bs, bt, cfg)
        assert str(info.value) == (
            "combined objective: non-finite gradient for parameter phi.layer0.w")
        assert all(ref.same_bits(p.value, b)
                   for p, b in zip(optim.params, before[0]))
        assert ref.same_bits(optim.m, before[1])
        assert ref.same_bits(optim.v, before[2])
        assert optim.t == before[3] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr, where", [
        ("lr_critic", "epoch 1, batch 0: global consistency term: "),
        ("lr_scorer", "epoch 1, batch 0: local consistency term: "),
        ("lr_model", "epoch 1, batch 1: encoder features: "),
    ])
    def test_train_failure_names_epoch_and_batch(self, lr, where):
        with pytest.raises(NumericError) as info:
            train(tiny_config(epochs=2, **{lr: 1e300}))
        assert str(info.value).startswith(where)

    def test_training_leaves_no_cyclic_garbage(self):
        # Autodiff graphs are acyclic, so reference counting frees them
        # and the cycle collector finds nothing to do.
        gc.collect()
        gc.disable()
        try:
            train(tiny_config())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_same_seed_bit_identical_histories(self):
        cfg = tiny_config(epochs=2)
        _, rep_a = train(cfg)
        _, rep_b = train(cfg)
        assert rep_a == rep_b
        assert emit_report(rep_a) == emit_report(rep_b)

    def test_screened_pairing_leaves_the_report_unchanged(self, monkeypatch):
        # pair_positive screens the 50-row batches and the 100-row
        # evaluations; the dense oracle computes every distance directly.
        cfg = tiny_config(n_per_domain=100, batch_size=50)
        screened = emit_report(train(cfg)[1])
        monkeypatch.setattr(cmi, "pair_positive", oracles.dense_pair_positive)
        monkeypatch.setattr(pipeline, "pair_positive", oracles.dense_pair_positive)
        assert emit_report(train(cfg)[1]) == screened

    def test_ablation_matches_plain_supervised_run(self):
        cfg = tiny_config(epochs=4, use_global=False, use_local=False)
        _, rep = train(cfg)

        # independent supervised loop over the same batch stream
        source, target = make_dataset(cfg)
        state = init_state(cfg)
        for _ in range(cfg.epochs):
            for batch_s, _unused in epoch_batches((source, target),
                                                  state.rng, cfg):
                zs = state.phi.forward(as_tensor(batch_s.X))
                loss = add(cross_entropy_loss(state.psi, zs, batch_s.labels),
                           regularizer([state.phi, state.psi], cfg.alpha))
                params = state.phi.parameters() + state.psi.parameters()
                step(state.optim_model, backward(loss, wrt=params))
        from driftlab.evalstats import accuracy
        preds = predict(state.psi, extract(state.phi, target.X))
        plain = accuracy(preds, target.labels)
        assert abs(rep["final"]["target_acc"] - plain) <= 0.5


# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------

@given(st.integers(2, 40), st.integers(1, 8),
       st.lists(st.integers(1, 16), max_size=3),
       st.sampled_from([1e-3, 1.0, 30.0, 1e3]), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_value_only_forwards_equal_the_graph_bit_for_bit(n, m, hidden, scale, seed):
    # evaluate_metrics runs every network on mlp_forward, off the graph
    rng = SplitMix64(seed)
    phi = MLP([2, *hidden, m], rng.spawn(1), name="phi")
    psi = MLP([m, *hidden, 3], rng.spawn(2), name="psi")
    critic = Critic(m, rng.spawn(3), hidden=tuple(hidden))
    scorer = BilinearScorer(m, rng.spawn(4), hidden=tuple(hidden))
    Xs, Xt = rng.normal((n, 2)) * scale, rng.normal((n, 2)) * scale
    zs, zt = extract(phi, Xs), extract(phi, Xt)
    assert ref.same_bits(zs, oracles.extract(phi, Xs))
    assert ref.same_bits(predict(psi, zs), oracles.predict(psi, zs))
    Zs, Zt = measure_normalize(rng.normal((n, m))), measure_normalize(rng.normal((n, m)))
    assert ref.same_bits(dual_objective(critic, Zs, Zt),
                         oracles.dual_objective(critic, Zs, Zt))
    batch = contrastive_from_features(zs, zt)
    assert ref.same_bits(scorer.score_matrix(batch),
                         oracles.gathered_score_matrix(scorer, batch))


# ---------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------

class TestRunExperiment:
    def test_zero_epochs_reports_initialization_only(self):
        rep = run_experiment(tiny_config(epochs=0))
        assert len(rep["per_epoch"]) == 1
        assert rep["per_epoch"][0]["epoch"] == 0
        assert rep["final"]["target_acc"] == rep["per_epoch"][0]["target_acc"]

    def test_report_shape(self):
        cfg = tiny_config(epochs=2)
        rep = run_experiment(cfg)
        assert rep["config_hash"] == config_hash(cfg)
        assert rep["seed"] == cfg.seed
        assert [row["epoch"] for row in rep["per_epoch"]] == [0, 1, 2]
        row = rep["per_epoch"][-1]
        assert set(row) == {"epoch", "source_acc", "target_acc",
                            "gcm_value", "cnce_value", "cls_loss"}
        bi = rep["final"]["bound_inputs"]
        assert set(bi) == {"label_entropy", "source_specific_info",
                           "target_specific_info", "cross_info_given_source",
                           "cross_info_given_target", "delta", "num_classes"}
        assert bi["label_entropy"] == pytest.approx(math.log(2), abs=1e-6)
        assert bi["cross_info_given_target"] >= 0.0
        assert bi["delta"] >= 0.0

    def test_report_file_written(self, tmp_path):
        path = tmp_path / "report.json"
        rep = run_experiment(tiny_config(epochs=0), report_path=path)
        assert emit_report(rep) == path.read_text()

    def test_report_io_failure_names_path(self, tmp_path, capsys):
        bad = tmp_path / "no_such_dir" / "report.json"
        with pytest.raises(OSError, match="no_such_dir"):
            run_experiment(tiny_config(epochs=0), report_path=str(bad))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in
                               {**TINY, "epochs": 0}.items()))
        code = main(["train", "--config", str(cfg), "--report", str(bad)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "no_such_dir" in err

    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "final.ckpt"
        run_experiment(tiny_config(epochs=1), checkpoint_path=path)
        params = load_checkpoint(path)
        assert any(k.startswith("phi/") for k in params)
        assert any(k.startswith("critic/") for k in params)

    def test_beta_sweep_distinct_hashes(self, tmp_path):
        base = tiny_config(epochs=0)
        betas = [round(0.1 * k, 1) for k in range(1, 10)]
        results = run_sweep(base, betas, field_name="beta",
                            out_dir=str(tmp_path))
        assert len(results) == 9
        hashes = {r["config_hash"] for r in results}
        assert len(hashes) == 9
        paths = {r["report_path"] for r in results}
        assert len(paths) == 9
        assert all(os.path.exists(p) for p in paths)
