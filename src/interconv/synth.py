"""Synthetic parity benchmark: mixture of XOR modules with no marginal signal.

Every feature is an independent fair coin. Each row picks one module
(a small feature subset) with the module's mixture probability and sets

    Y = sum of the module's features, mod 2.

With fair coins, any single feature (and any cell of a partial module) is
independent of Y, so only the full interaction carries signal. The best
possible classifier that knows one module m is right with probability
mix_m * 1 + (1 - mix_m) * 1/2, exposed as `theoretical_rate`. That rate is
an accuracy, not an AUC. For the default spec it is 0.75 whether one module
or both are known: rows whose two parities disagree have P(Y=1 | x) = 1/2.
Knowing both does raise the Bayes AUC, from 0.75 to 0.875.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDataset
from .errors import ConfigError

GENERATOR_ID = "numpy default_rng (PCG64), 64-bit seed"

DEFAULT_MODULES = (((0, 1), 0.5), ((2, 3, 4), 0.5))


@dataclass(frozen=True)
class ParityModelSpec:
    """Generator settings. Module features are 0-based column indices."""

    n_features: int = 36
    n_train: int = 500
    n_test: int = 10_000
    modules: tuple[tuple[tuple[int, ...], float], ...] = DEFAULT_MODULES
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("n_features", 1), ("n_train", 1), ("n_test", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.modules:
            raise ConfigError("at least one parity module is required")
        total = 0.0
        # modules are named by 1-based position, as `cmd_synth` lists them, not by a 0-based index
        for m, (features, mix) in enumerate(self.modules, start=1):
            if not features:
                raise ConfigError("parity modules must not be empty")
            if len(set(features)) != len(features):
                raise ConfigError(f"module {m} has repeated indices")
            if not all(0 <= j < self.n_features for j in features):
                raise ConfigError(f"module {m} has an index outside the {self.n_features} features")
            if not 0 <= mix < np.inf:
                raise ConfigError(f"mixture probabilities must be finite and non-negative, got {mix}")
            total += mix
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mixture probabilities must sum to 1, got {total}")

    @property
    def mixture(self) -> np.ndarray:
        return np.array([m for _, m in self.modules], dtype=np.float64)


def _draw(spec: ParityModelSpec, rng: np.random.Generator, n: int) -> DiscreteDataset:
    # bool levels take DiscreteDataset's narrow uint8 path; the draw itself is unchanged
    x = rng.integers(0, 2, size=(n, spec.n_features), dtype=np.int64).astype(bool)
    chosen = rng.choice(len(spec.modules), size=n, p=spec.mixture)
    y = np.zeros(n, dtype=np.int64)
    for m, (features, _) in enumerate(spec.modules):
        rows = chosen == m
        y[rows] = x[np.ix_(rows, list(features))].sum(axis=1) % 2
    return DiscreteDataset(x, y, np.full(spec.n_features, 2, dtype=np.int64))


def generate(spec: ParityModelSpec) -> tuple[DiscreteDataset, DiscreteDataset | None]:
    """Seeded (train, test) draw from one PCG64 stream, train first.

    Returns None for the test split when n_test is 0.
    """
    rng = np.random.default_rng(spec.seed)
    train = _draw(spec, rng, spec.n_train)
    test = _draw(spec, rng, spec.n_test) if spec.n_test > 0 else None
    return train, test


def theoretical_rate(spec: ParityModelSpec, module_index: int) -> float:
    """Accuracy of the oracle that predicts module `module_index`'s parity.

    This is a share of rows classified right, not an AUC.
    """
    if not (0 <= module_index < len(spec.modules)):
        raise ConfigError(f"module index {module_index} out of range")
    rate = 0.0
    for m, (_, mix) in enumerate(spec.modules):
        rate += mix * (1.0 if m == module_index else 0.5)
    return rate
