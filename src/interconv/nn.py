"""Small fully-connected classifier trained with RMSprop.

Architectures are input -> (optional sigmoid hidden layer) -> output, with no
bias terms anywhere. The sigmoid, of hidden units and of a 1-unit output, is
`where(z >= 0, 1, e) / (1 + e)` with `e = exp(-|z|)`, so it cannot overflow.
A 2-unit output's softmax shifts by the larger of its two columns and sums
them in one add; its class-1 column is the prediction. Both activations are
bitwise equal to their references in `tests/oracles.py`. Loss is binary
cross-entropy on that probability, gradients are exact, and updates follow
RMSprop in place, in this float order:

    v *= decay; v += (1 - decay) * g * g
    w -= lr * g / (sqrt(v) + 1e-8)

`train` shapes its labels once (`_targets`) and gathers each batch with `take`.
A step computes no batch loss and checks nothing `train` checked; its
checked, copying form, built from the same private parts, is in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RealDataset, _write_csv
from .errors import ConfigError, DataError, NumericError

CLAMP = 1e-12
RMS_EPS = 1e-8
INIT_SCALE = 0.05


@dataclass(frozen=True)
class MlpArchitecture:
    input_width: int
    hidden: int | None = None
    output_units: int = 2

    def __post_init__(self) -> None:
        if self.input_width < 1:
            raise ConfigError(f"input width must be >= 1, got {self.input_width}")
        if self.hidden is not None and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1 or None, got {self.hidden}")
        if self.output_units not in (1, 2):
            raise ConfigError(f"output_units must be 1 or 2, got {self.output_units}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        if self.hidden is None:
            return [(self.input_width, self.output_units)]
        return [(self.input_width, self.hidden), (self.hidden, self.output_units)]


def param_count(arch: MlpArchitecture) -> int:
    """Total number of trainable weights (there are no biases)."""
    return sum(a * b for a, b in arch.layer_shapes())


@dataclass(frozen=True)
class TrainingHyper:
    learning_rate: float = 0.001
    decay: float = 0.9
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.decay < 1.0):
            raise ConfigError(f"decay must lie in [0, 1), got {self.decay}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class MlpModel:
    arch: MlpArchitecture
    weights: tuple[np.ndarray, ...]
    rms_state: tuple[np.ndarray, ...]
    hyper: TrainingHyper = field(default_factory=TrainingHyper)


def init_model(
    arch: MlpArchitecture,
    hyper: TrainingHyper | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> MlpModel:
    """Uniform(-0.05, 0.05) weights and zeroed RMSprop accumulators.

    The weights are drawn from `rng`, by default a generator seeded from
    `hyper.seed`; `train` passes its own so the same stream then shuffles.
    """
    hyper = hyper or TrainingHyper()
    if rng is None:
        rng = np.random.default_rng(hyper.seed)
    weights = tuple(
        rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape) for shape in arch.layer_shapes()
    )
    state = tuple(np.zeros(shape) for shape in arch.layer_shapes())
    return MlpModel(arch=arch, weights=weights, rms_state=state, hyper=hyper)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    ez = np.exp(z - np.maximum(z[:, :1], z[:, 1:]))
    return ez / (ez[:, :1] + ez[:, 1:])


def _as_matrix(features: np.ndarray, width: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != width:
        raise DataError(f"features of width {width} expected, got shape {x.shape}")
    return x, single


def _forward_parts(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None without a hidden layer) and output probabilities."""
    if model.arch.hidden is None:
        hidden = None
        z_out = x @ model.weights[0]
    else:
        hidden = _sigmoid(x @ model.weights[0])
        z_out = hidden @ model.weights[1]
    return hidden, _sigmoid(z_out) if model.arch.output_units == 1 else _softmax(z_out)


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray | float:
    """Predicted probability of class 1 for one row or a matrix of rows.

    Only `model.arch` and `model.weights` are read, so a `ModelBundle`
    serves as well.
    """
    x, single = _as_matrix(features, model.arch.input_width)
    _, probs = _forward_parts(model, x)
    yhat = probs[:, -1]
    return float(yhat[0]) if single else yhat


def bce_loss(y_true, y_prob) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-12, 1-1e-12]."""
    y = np.asarray(y_true, dtype=np.float64).ravel()
    p = np.clip(np.asarray(y_prob, dtype=np.float64).ravel(), CLAMP, 1.0 - CLAMP)
    if y.shape != p.shape:
        raise DataError(f"labels {y.shape} and probabilities {p.shape} differ in length")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _targets(y: np.ndarray, arch: MlpArchitecture) -> np.ndarray:
    """Labels as the output layer scores them: (1 - y, y) columns, or y alone for one unit."""
    return y[:, np.newaxis] if arch.output_units == 1 else np.column_stack([1.0 - y, y])


def _gradients(model: MlpModel, x: np.ndarray, target: np.ndarray, hidden, probs) -> tuple:
    """Exact mean-BCE gradients from a checked batch, its `_targets` and its forward pass."""
    dz_out = (probs - target) / x.shape[0]
    if hidden is None:
        return (x.T @ dz_out,)
    dz_hidden = (dz_out @ model.weights[1].T) * hidden * (1.0 - hidden)
    return (x.T @ dz_hidden, hidden.T @ dz_out)


def _rmsprop_update(weights: tuple, state: tuple, grads: tuple, hyper: TrainingHyper) -> None:
    """One RMSprop update of `weights` and `state`, in place."""
    lr, decay = hyper.learning_rate, hyper.decay
    for w, v, g in zip(weights, state, grads, strict=True):
        v *= decay
        v += (1.0 - decay) * g * g
        w -= lr * g / (np.sqrt(v) + RMS_EPS)


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...] | None = None


def train(
    arch: MlpArchitecture,
    data: RealDataset,
    hyper: TrainingHyper | None = None,
    val_data: RealDataset | None = None,
) -> TrainResult:
    """Mini-batch RMSprop training with seeded init and seeded shuffling.

    Records the full-set training loss after every epoch (validation loss too
    when `val_data` is given). Zero epochs returns the initialized model
    untouched. A non-finite loss aborts immediately.
    """
    hyper = hyper or TrainingHyper()
    for name, each in (("data", data), ("validation data", val_data)):
        if each is not None and each.width != arch.input_width:
            raise DataError(f"architecture expects {arch.input_width} features, {name} has {each.width}")
    rng = np.random.default_rng(hyper.seed)
    model = init_model(arch, hyper, rng=rng)
    x, y = data.features, data.response.astype(np.float64)
    target = _targets(y, arch)
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(data.n)
        for lo in range(0, data.n, hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            xb = x.take(batch, axis=0)
            grads = _gradients(model, xb, target.take(batch, axis=0), *_forward_parts(model, xb))
            _rmsprop_update(model.weights, model.rms_state, grads, hyper)
        epoch_loss = bce_loss(y, forward(model, x))
        if not np.isfinite(epoch_loss):
            raise NumericError(
                f"training loss became non-finite at epoch {epoch + 1}; "
                f"try a smaller learning_rate than {hyper.learning_rate}"
            )
        train_losses.append(epoch_loss)
        if val_data is not None:
            val_losses.append(bce_loss(val_data.response, forward(model, val_data.features)))
    return TrainResult(
        model=model,
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses) if val_data is not None else None,
    )


def write_loss_csv(path, result: TrainResult) -> None:
    val = result.val_losses or ("",) * len(result.train_losses)
    rows = zip(range(1, len(val) + 1), result.train_losses, val)
    _write_csv(path, ["epoch", "train_loss", "val_loss"], rows)
