"""Synthetic covariate-shift generator.

The two-moons generator follows one discipline: a deterministic
labeling rule defined on input space (the same rule in both domains, up
to the known rigid motion between them), samples drawn class-first with
rejection so the stored labels always agree with the rule, and exact
per-class counts. That makes the shared-conditional contract checkable
by literally relabeling the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensorcore import SplitMix64

_DOMAIN_TAGS = ("source", "target")


@dataclass
class LabeledDomain:
    """Feature matrix with integer labels and a domain tag."""

    X: np.ndarray
    labels: np.ndarray
    domain: str

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.ndim != 2:
            raise DimensionError("feature matrix must be 2-D")
        if self.labels.shape[0] != self.X.shape[0]:
            raise ContractError("label count differs from row count")
        if self.labels.size and self.labels.min() < 0:
            raise ContractError("negative label")
        if self.domain not in _DOMAIN_TAGS:
            raise ContractError(f"domain tag must be one of {_DOMAIN_TAGS}")

    def __len__(self):
        return self.X.shape[0]


def _parse_ratio(ratio):
    """The class-0 fraction of an 'a:b' ratio string."""
    parts = ratio.split(":")
    if len(parts) != 2:
        raise ContractError(f"ratio must look like '3:7', got {ratio!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ContractError(f"non-numeric ratio {ratio!r}")
    if a <= 0 or b <= 0:
        raise ContractError("degenerate class ratio: both sides must be positive")
    if not np.isfinite(a + b):  # a NaN or infinite side, or a sum past the range
        raise ContractError(
            f"class ratio {ratio!r} needs finite sides with a finite sum")
    return a / (a + b)


def _class_counts(n, frac0):
    c0 = int(round(n * frac0))
    c0 = min(max(c0, 1), n - 1)
    return c0, n - c0


# ---------------------------------------------------------------------
# two moons
# ---------------------------------------------------------------------

def _arc_distance(points):
    """Distance from each point to the upper unit half-circle arc."""
    x, y = points[:, 0], points[:, 1]
    r = np.hypot(x, y)
    on_arc = y >= 0
    radial = np.abs(r - 1.0)
    d_end = np.minimum(np.hypot(x - 1.0, y), np.hypot(x + 1.0, y))
    return np.where(on_arc, radial, d_end)


def two_moons_label_rule(points, rotation_deg=0.0):
    """Deterministic labels: nearest ideal moon arc, evaluated in the
    pre-rotation frame. Ties go to class 0."""
    p = np.asarray(points, dtype=np.float64)
    if rotation_deg:
        p = p @ _rotation(rotation_deg)  # inverse rotation of column vectors
    d0 = _arc_distance(p)
    flipped = np.column_stack([1.0 - p[:, 0], 0.5 - p[:, 1]])
    d1 = _arc_distance(flipped)
    return (d1 < d0).astype(np.int64)


def _rotation(deg):
    t = np.deg2rad(deg)
    c, s = np.cos(t), np.sin(t)
    # applied as p @ R, rows as points; inverse of the forward rotation
    return np.array([[c, -s], [s, c]])


# Rejection rounds in a row that may accept no point. Past about
# noise_sigma=1e18 the moons round onto each other, distances tie and
# ties go to class 0. A 16-point round draws class 1 with chance 1e-3
# at 1e18, where the cap stops a wait that would end with chance e^-9.6.
_MAX_EMPTY_ROUNDS = 10_000


def _sample_moon_class(rng, cls, count, noise_sigma):
    """Rejection-sample noisy points whose rule label equals ``cls``."""
    accepted = []
    have = empty = 0
    while have < count:
        if empty == _MAX_EMPTY_ROUNDS:
            raise ContractError(f"noise_sigma={noise_sigma!r} is too large: {empty} "
                                f"rejection rounds in a row drew no class-{cls} point")
        draw = max(count - have, 8) * 2
        t = rng.uniform((draw,)) * np.pi
        base = np.column_stack([np.cos(t), np.sin(t)])
        if cls == 1:
            base = np.column_stack([1.0 - base[:, 0], 0.5 - base[:, 1]])
        pts = base + noise_sigma * rng.normal((draw, 2))
        keep = two_moons_label_rule(pts) == cls
        pts = pts[keep]
        accepted.append(pts)
        have += pts.shape[0]
        empty = 0 if pts.shape[0] else empty + 1
    return np.concatenate(accepted)[:count]


def gen_two_moons_shift(n=500, rotation_deg=30.0, noise_sigma=0.1,
                        class_ratio_t="5:5", seed=0):
    """Two interleaved half-circles; the target domain is the same
    manifold rigidly rotated, sampled with its own class ratio.

    Labels in both domains come from the nearest-arc rule in the
    pre-rotation frame, so relabeling either domain with the shared
    rule reproduces the stored labels exactly.
    """
    if n < 4:
        raise ContractError("need n >= 4")
    if not (0 <= rotation_deg < 90):
        raise ContractError("rotation must lie in [0, 90) degrees")
    if noise_sigma < 0:
        raise ContractError("noise_sigma must be nonnegative")
    frac0 = _parse_ratio(class_ratio_t)

    rng = SplitMix64(seed)
    src_rng, tgt_rng = rng.spawn(1), rng.spawn(2)

    s0, s1 = _class_counts(n, 0.5)
    xs = np.concatenate([
        _sample_moon_class(src_rng, 0, s0, noise_sigma),
        _sample_moon_class(src_rng, 1, s1, noise_sigma),
    ])
    ys = np.concatenate([np.zeros(s0, np.int64), np.ones(s1, np.int64)])

    t0, t1 = _class_counts(n, frac0)
    pre = np.concatenate([
        _sample_moon_class(tgt_rng, 0, t0, noise_sigma),
        _sample_moon_class(tgt_rng, 1, t1, noise_sigma),
    ])
    yt = np.concatenate([np.zeros(t0, np.int64), np.ones(t1, np.int64)])
    rot = _rotation(rotation_deg).T  # forward rotation for row vectors
    xt = pre @ rot

    return (LabeledDomain(xs, ys, "source"),
            LabeledDomain(xt, yt, "target"))
