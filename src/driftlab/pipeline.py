"""Two-step adversarial training on synthetic domain-shift data.

One adversarial step first trains the helper networks with the encoder
and classifier frozen (the alignment critic ascends its penalized dual,
the contrastive scorer ascends its bound), then takes a single descent
step on the combined objective with the helpers frozen. The combined
objective sums four terms: the critic's dual value (global
consistency), the contrastive estimate (local consistency), the source
cross-entropy, and a weight-decay style penalty on the encoder and
classifier.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .cmi import (
    BilinearScorer,
    cnce_estimate,
    contrastive_from_features,
    pair_positive,
    train_scorer,
)
from .data import LabeledDomain, _parse_ratio, gen_two_moons_shift
from .dualcritic import (
    Critic,
    dual_objective,
    dual_objective_graph,
    measure_normalize,
    measure_normalize_graph,
    train_critic,
)
from .errors import ContractError, NumericError, ParseError
from .evalstats import accuracy, emit_report
from .model import (
    collect_params,
    cross_entropy_loss,
    extract,
    predict,
    regularizer,
    save_checkpoint,
)
from .tensorcore import (
    MLP,
    OptimState,
    SplitMix64,
    as_tensor,
    backward,
    select_rows,
    step,
)
from .textio import coerce_field, read_fields

DATASETS = ("two-moons",)

PHI_HIDDEN = (32, 32)
PSI_HIDDEN = (16,)


@dataclass
class TrainConfig:
    """Everything a run needs; hashable as canonical key=value text."""

    seed: int = 0
    dataset: str = "two-moons"
    n_per_domain: int = 500
    rotation_deg: float = 30.0
    noise_sigma: float = 0.1
    source_ratio: str = "5:5"
    target_ratio: str = "3:7"
    feature_dim: int = 8
    batch_size: int = 50
    epochs: int = 30
    beta: float = 0.4
    alpha: float = 1.0
    lam: float = 10.0
    lr_model: float = 1e-3
    lr_critic: float = 1e-3
    lr_scorer: float = 1e-3
    critic_steps: int = 5
    scorer_steps: int = 5
    use_global: bool = True
    use_local: bool = True
    use_classifier: bool = True
    use_regularizer: bool = True

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ContractError(f"{f.name} must be finite, got {val!r}")
        if self.dataset not in DATASETS:
            raise ContractError(f"unknown dataset {self.dataset!r}")
        if not 0.0 < self.beta < 1.0:
            raise ContractError("beta must lie strictly between 0 and 1")
        if self.alpha < 0.0 or self.lam < 0.0:
            raise ContractError("alpha and lam must be nonnegative")
        if min(self.lr_model, self.lr_critic, self.lr_scorer) <= 0.0:
            raise ContractError("learning rates must be positive")
        if self.batch_size < 2:
            raise ContractError("contrastive negatives need batch_size >= 2")
        if self.epochs < 0 or self.critic_steps < 0 or self.scorer_steps < 0:
            raise ContractError("epochs and inner step counts are nonnegative")
        if self.feature_dim < 1:
            raise ContractError("feature_dim must be at least 1")
        if self.n_per_domain < 4:
            raise ContractError("need at least 4 samples per domain")
        _ratio_counts(self.batch_size, self.source_ratio)
        _ratio_counts(self.batch_size, self.target_ratio)


@dataclass
class TrainState:
    """Networks, optimizers, and the append-only metric history."""

    phi: MLP
    psi: MLP
    critic: Critic
    scorer: BilinearScorer
    optim_model: OptimState
    optim_critic: OptimState
    optim_scorer: OptimState
    rng: SplitMix64
    epoch: int = 0
    history: list = field(default_factory=list)


# ---------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------

def _format_value(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def canonical_config_text(config):
    """One sorted key=value line per field; the hashing preimage."""
    lines = [
        f"{f.name}={_format_value(getattr(config, f.name))}"
        for f in sorted(fields(config), key=lambda f: f.name)
    ]
    return "\n".join(lines) + "\n"


def config_hash(config):
    return hashlib.sha256(canonical_config_text(config).encode()).hexdigest()


def save_config(config, path):
    with open(path, "w") as fh:
        fh.write(canonical_config_text(config))


def load_config(path):
    """Parse a key=value config file; unknown keys and bad values are
    parse errors naming the offending line."""
    try:
        return read_fields(path, TrainConfig)
    except ContractError as exc:
        raise ParseError(str(exc))


def apply_overrides(config, assignments):
    """Return a config with key=value overrides applied (CLI --set)."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    for item in assignments:
        try:
            key, value = coerce_field(TrainConfig, item)
        except ValueError as exc:
            raise ContractError(f"override {item!r}: {exc}")
        values[key] = value
    return TrainConfig(**values)


# ---------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------

def _generation_ratio(ratio):
    """'uniform' batching draws from a balanced generated domain."""
    if ratio.strip().lower() == "uniform":
        return "1:1"
    return ratio


def make_dataset(config):
    """Build the configured source/target pair."""
    if config.dataset == "two-moons":
        return gen_two_moons_shift(
            n=config.n_per_domain,
            rotation_deg=config.rotation_deg,
            noise_sigma=config.noise_sigma,
            class_ratio_t=_generation_ratio(config.target_ratio),
            seed=config.seed,
        )
    raise ContractError(f"unknown dataset {config.dataset!r}")


def _ratio_counts(batch_size, ratio):
    """Exact per-class counts for a stratified batch, or None for uniform."""
    if ratio.strip().lower() == "uniform":
        return None
    frac0 = _parse_ratio(ratio)
    c0 = frac0 * batch_size
    if abs(c0 - round(c0)) > 1e-9:
        raise ContractError(
            f"ratio {ratio!r} cannot be met exactly with batch size {batch_size}"
        )
    c0 = int(round(c0))
    if c0 == 0 or c0 == batch_size:
        raise ContractError(f"ratio {ratio!r} empties one class at N={batch_size}")
    return (c0, batch_size - c0)


def _stratified_indices(domain, rng, counts, batch_size):
    """Index batches for one epoch, drawn without replacement.

    With class counts, each class's shuffled index stream is cut into
    consecutive chunks; uniform batches chunk one shuffled permutation.
    """
    n = len(domain)
    if batch_size > n:
        raise ContractError(f"batch size {batch_size} exceeds domain size {n}")
    if counts is None:
        perm = rng.permutation(n)
        n_batches = n // batch_size
        return [perm[i * batch_size:(i + 1) * batch_size]
                for i in range(n_batches)]
    streams = []
    for cls, need in enumerate(counts):
        members = np.flatnonzero(domain.labels == cls)
        if len(members) < need:
            raise ContractError(
                f"class {cls} has {len(members)} samples, batch needs {need}"
            )
        order = members[rng.permutation(len(members))]
        streams.append((order, need))
    n_batches = min(len(order) // need for order, need in streams)
    batches = []
    for i in range(n_batches):
        parts = [order[i * need:(i + 1) * need] for order, need in streams]
        merged = np.concatenate(parts)
        batches.append(merged[rng.permutation(len(merged))])
    return batches


def _take(domain, idx):
    return LabeledDomain(domain.X[idx], domain.labels[idx], domain.domain)


def sample_minibatch(dataset, rng, imbalance_spec):
    """Draw one (source, target) batch pair per the imbalance spec.

    ``dataset`` is a (source, target) LabeledDomain pair. The spec is a
    dict with ``batch_size`` plus per-domain ratio entries ``source``
    and ``target``, each either 'a:b' (exact stratified counts) or
    'uniform' (plain without-replacement draw).
    """
    source, target = dataset
    batch_size = int(imbalance_spec["batch_size"])
    out = []
    for domain, key in ((source, "source"), (target, "target")):
        counts = _ratio_counts(batch_size, imbalance_spec.get(key, "uniform"))
        idx = _stratified_indices(domain, rng, counts, batch_size)[0]
        out.append(_take(domain, idx))
    return tuple(out)


def epoch_batches(dataset, rng, config):
    """All batch pairs of one epoch: both domains sampled without
    replacement, truncated to the shorter domain's batch count."""
    source, target = dataset
    sb = _stratified_indices(
        source, rng, _ratio_counts(config.batch_size, config.source_ratio),
        config.batch_size)
    tb = _stratified_indices(
        target, rng, _ratio_counts(config.batch_size, config.target_ratio),
        config.batch_size)
    pairs = []
    for i in range(min(len(sb), len(tb))):
        pairs.append((_take(source, sb[i]), _take(target, tb[i])))
    return pairs


# ---------------------------------------------------------------------
# objective and steps
# ---------------------------------------------------------------------

def init_state(config, input_dim=2, num_classes=2):
    rng = SplitMix64(config.seed)
    phi = MLP([input_dim, *PHI_HIDDEN, config.feature_dim], rng.spawn(11),
              name="phi")
    psi = MLP([config.feature_dim, *PSI_HIDDEN, num_classes], rng.spawn(12),
              name="psi")
    critic = Critic(config.feature_dim, rng.spawn(13), lam=config.lam,
                    beta=config.beta)
    scorer = BilinearScorer(config.feature_dim, rng.spawn(14))
    return TrainState(
        phi=phi,
        psi=psi,
        critic=critic,
        scorer=scorer,
        optim_model=OptimState(phi.parameters() + psi.parameters(),
                               lr=config.lr_model),
        optim_critic=OptimState(critic.parameters(), lr=config.lr_critic),
        optim_scorer=OptimState(scorer.parameters(), lr=config.lr_scorer),
        rng=rng.spawn(15),
    )


def rlglc_objective(state, batch_s, batch_t, config):
    """The combined objective as a Tensor, with its term breakdown.

    Built for the descent half of a step: the critic and scorer act as
    fixed functions and only the encoder/classifier parameters are
    meant to receive the gradients. The breakdown holds one float per
    enabled term plus their exact float sum under "total".
    """
    zs = state.phi.forward(as_tensor(np.asarray(batch_s.X, dtype=np.float64)))
    zt = state.phi.forward(as_tensor(np.asarray(batch_t.X, dtype=np.float64)))

    terms = {}
    if config.use_global:
        terms["global"] = dual_objective_graph(
            state.critic, measure_normalize_graph(zs), measure_normalize_graph(zt)
        )
    if config.use_local:
        pairing = pair_positive(zt.value, zs.value)
        terms["local"] = state.scorer.objective_graph(
            select_rows(zs, pairing), zt
        )
    if config.use_classifier:
        terms["classifier"] = cross_entropy_loss(state.psi, zs, batch_s.labels)
    if config.use_regularizer:
        terms["regularizer"] = regularizer([state.phi, state.psi], config.alpha)
    if not terms:
        raise ContractError("every loss term is disabled")

    total = None
    breakdown = {}
    for name, tensor in terms.items():
        val = float(tensor.item())
        if not np.isfinite(val):
            raise NumericError(f"{name} term is non-finite")
        breakdown[name] = val
        total = tensor if total is None else total + tensor
    breakdown["total"] = float(total.item())
    return total, breakdown


def adversarial_step(state, batch_s, batch_t, config):
    """One two-step update: helpers first, then the encoder/classifier.

    Exactly ``critic_steps`` critic updates and ``scorer_steps`` scorer
    updates run against frozen features, then a single descent step
    moves the encoder and classifier. Numeric blowups name the term
    that produced them.
    """
    xs = np.asarray(batch_s.X, dtype=np.float64)
    xt = np.asarray(batch_t.X, dtype=np.float64)
    try:
        zs = extract(state.phi, xs)
        zt = extract(state.phi, xt)
    except NumericError as exc:
        raise NumericError(f"encoder features: {exc}")

    if config.use_global and config.critic_steps > 0:
        try:
            train_critic(state.critic, measure_normalize(zs),
                         measure_normalize(zt), config.critic_steps,
                         state.optim_critic)
        except NumericError as exc:
            raise NumericError(f"global consistency term: {exc}")

    if config.use_local and config.scorer_steps > 0:
        try:
            train_scorer(state.scorer, zs[pair_positive(zt, zs)], zt,
                         config.scorer_steps, state.optim_scorer)
        except NumericError as exc:
            raise NumericError(f"local consistency term: {exc}")

    try:
        total, _ = rlglc_objective(state, batch_s, batch_t, config)
        params = state.phi.parameters() + state.psi.parameters()
        grads = backward(total, wrt=params)
        step(state.optim_model, grads)
    except NumericError as exc:
        raise NumericError(f"combined objective: {exc}")
    return state


# ---------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------

def _label_entropy(labels):
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def evaluate_metrics(state, source, target, epoch):
    """Accuracy, alignment, contrastive, and classification metrics."""
    zs = extract(state.phi, source.X)
    zt = extract(state.phi, target.X)
    pred_s, _ = predict(state.psi, zs)
    pred_t, _ = predict(state.psi, zt)
    gcm = dual_objective(state.critic, measure_normalize(zs),
                         measure_normalize(zt))
    cnce = cnce_estimate(state.scorer, contrastive_from_features(zs, zt))
    cls = float(cross_entropy_loss(state.psi, zs, source.labels).item())
    return {
        "epoch": int(epoch),
        "source_acc": accuracy(pred_s, source.labels),
        "target_acc": accuracy(pred_t, target.labels),
        "gcm_value": gcm,
        "cnce_value": cnce,
        "cls_loss": cls,
    }


def train(config):
    """Train per the config; returns the final state and its report.

    The report carries the config hash, the seed, one metric row per
    epoch (epoch 0 is the initialization snapshot), and a final block
    with the target accuracy and the Bayes-bound inputs the artifact
    can estimate at this scale: the label entropy, the trained
    contrastive estimate for the cross-domain term conditioned on
    target features, and the weight penalty as the slack. The other
    three information terms carry 0.0, the conservative choice that
    keeps their individual bounds at chance level.

    A ``NumericError`` from a step is raised again prefixed with the
    epoch (counted from 1, as in the report) and the batch index within
    that epoch (counted from 0).
    """
    source, target = make_dataset(config)
    num_classes = int(max(source.labels.max(), target.labels.max())) + 1
    state = init_state(config, input_dim=source.X.shape[1],
                       num_classes=num_classes)
    state.history.append(evaluate_metrics(state, source, target, 0))
    for epoch in range(1, config.epochs + 1):
        batches = epoch_batches((source, target), state.rng, config)
        for b, (batch_s, batch_t) in enumerate(batches):
            try:
                adversarial_step(state, batch_s, batch_t, config)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {b}: {exc}")
        state.epoch = epoch
        state.history.append(evaluate_metrics(state, source, target, epoch))

    final = state.history[-1]
    bound_inputs = {
        "label_entropy": _label_entropy(source.labels),
        "source_specific_info": 0.0,
        "target_specific_info": 0.0,
        "cross_info_given_source": 0.0,
        "cross_info_given_target": max(0.0, final["cnce_value"]),
        "delta": float(regularizer([state.phi, state.psi],
                                   config.alpha).item()),
        "num_classes": num_classes,
    }
    report = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "per_epoch": state.history,
        "final": {
            "target_acc": final["target_acc"],
            "bound_inputs": bound_inputs,
        },
    }
    return state, report


def run_experiment(config, report_path=None, checkpoint_path=None):
    """Train and return the report, optionally persisting artifacts."""
    state, report = train(config)
    if checkpoint_path is not None:
        nets = {"phi": state.phi, "psi": state.psi,
                "critic": state.critic, "scorer": state.scorer}
        try:
            save_checkpoint(checkpoint_path, collect_params(nets))
        except OSError as exc:
            raise ContractError(
                f"cannot write checkpoint to {checkpoint_path}: {exc}")
    if report_path is not None:
        try:
            emit_report(report, report_path)
        except OSError as exc:
            raise ContractError(f"cannot write report to {report_path}: {exc}")
    return report


def run_sweep(base_config, values, field_name="beta", out_dir=None):
    """Run one experiment per value of a single config field.

    Runs are fully independent (fresh state, nothing shared) and are
    merged by config hash; with ``out_dir`` each report also lands in
    its own file named by that hash.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    results = []
    for val in values:
        cfg = apply_overrides(base_config, [f"{field_name}={val}"])
        path = None
        if out_dir is not None:
            path = os.path.join(out_dir, f"run_{config_hash(cfg)[:16]}.json")
        report = run_experiment(cfg, report_path=path)
        results.append({
            "run_id": f"{field_name}={_format_value(val)}",
            "config_hash": report["config_hash"],
            "final_target_acc": report["final"]["target_acc"],
            "report_path": path,
        })
    return results
