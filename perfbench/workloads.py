"""Workload settings and the inputs each workload derives from its seed.

The benchmark owns the seed: every input handed to driftlab (a training
config's own seed, feature batches, a joint table, a sampling seed) is
drawn here from ``numpy.random.default_rng(workload_seed)``, so the
program never sees the workload seed itself and the same seed always
gives the same inputs.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("train-adapt", "train-default", "ot-nested", "cmi-joint")

# The training settings of the acceptance adaptation fixture (criterion 7,
# "full" variant), cut to a fixed, short epoch count.
ADAPT_SETTINGS = dict(
    n_per_domain=200, batch_size=20, rotation_deg=30.0, target_ratio="3:7",
    alpha=0.01, lam=10.0, feature_dim=4, lr_model=1e-3, lr_scorer=5e-3,
    lr_critic=3e-3, critic_steps=5, scorer_steps=15,
)

# Per-layer OT metrics name the three query sizes of the full workload;
# the toy tier runs smaller sizes in the same three slots.
OT_SLOTS = ("n50", "n100", "n150")

SETTINGS = {
    "full": {
        "train-adapt": {"train": dict(ADAPT_SETTINGS, epochs=2)},
        "train-default": {"train": {"epochs": 1}},
        "ot-nested": {"sizes": (50, 100, 150), "dim": 8, "beta": 0.4},
        "cmi-joint": {"n_samples": 10000, "k": 512, "chunk": 4096},
    },
    "toy": {
        "train-adapt": {"train": dict(ADAPT_SETTINGS, n_per_domain=40,
                                      batch_size=10, critic_steps=2,
                                      scorer_steps=2, epochs=1)},
        "train-default": {"train": {"n_per_domain": 40, "batch_size": 10,
                                    "epochs": 1}},
        "ot-nested": {"sizes": (6, 8, 10), "dim": 8, "beta": 0.4},
        "cmi-joint": {"n_samples": 500, "k": 16, "chunk": 128},
    },
}


def train_fields(seed, settings):
    """TrainConfig fields: the workload settings plus a derived run seed."""
    rng = np.random.default_rng(seed)
    return dict(settings["train"], seed=int(rng.integers(2**31)))


def ot_batches(seed, settings, round_index):
    """One (source, target) feature-batch pair per query size.

    Rows look like extractor outputs: standard normal features, the
    target batch shifted by half a unit in every dimension. Both batches
    carry uniform weights, as empirical measures of a batch do. Each
    round draws fresh batches: the solver's run time depends on the
    data, so a run averages over several draws rather than one.
    """
    rng = np.random.default_rng([seed, round_index])
    dim = settings["dim"]
    return [(rng.normal(size=(n, dim)), rng.normal(loc=0.5, size=(n, dim)))
            for n in settings["sizes"]]


def cmi_joint(seed):
    """A 3x3x3 joint table with full support.

    Z is uniform and each P(x_s, x_t | z) is a random 3x3 table, so the
    sampler's per-z groups stay about the same size from seed to seed;
    the information content varies.
    """
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(9), size=3).T.reshape(3, 3, 3) / 3.0


def cmi_sample_seed(seed, draw_index):
    """The sampling seed of one draw. Each draw samples afresh: the
    sampler's peak memory depends on the order in which its per-z
    groups grow, so a run takes its peak over many draws."""
    return int(np.random.default_rng([seed, draw_index]).integers(2**31))
