"""Small fully-connected classifier trained with RMSprop.

Architectures are input -> (optional sigmoid hidden layer) -> output, with no
bias terms anywhere. A 1-unit output applies a sigmoid; a 2-unit output
applies a softmax and the predicted probability is the class-1 coordinate.
Loss is binary cross-entropy on that probability, gradients are exact, and
updates follow RMSprop:

    v <- decay * v + (1 - decay) * g^2
    w <- w - lr * g / (sqrt(v) + 1e-8)
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


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
    if model.arch.output_units == 1:
        probs = _sigmoid(z_out)
    else:
        probs = _softmax(z_out)
    return hidden, probs


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


def loss_and_gradients(
    model: MlpModel, features: np.ndarray, y_true: np.ndarray
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Mean BCE over the batch and its exact gradient for every weight matrix."""
    x, _ = _as_matrix(features, model.arch.input_width)
    y = np.asarray(y_true, dtype=np.float64).ravel()
    if y.shape[0] != x.shape[0]:
        raise DataError("feature rows and labels differ in length")
    n = x.shape[0]
    hidden, probs = _forward_parts(model, x)
    loss = bce_loss(y, probs[:, -1])

    if model.arch.output_units == 1:
        dz_out = (probs[:, 0] - y)[:, np.newaxis] / n
    else:
        onehot = np.column_stack([1.0 - y, y])
        dz_out = (probs - onehot) / n

    if model.arch.hidden is None:
        grads = (x.T @ dz_out,)
    else:
        d_w2 = hidden.T @ dz_out
        d_hidden = dz_out @ model.weights[1].T
        dz_hidden = d_hidden * hidden * (1.0 - hidden)
        grads = (x.T @ dz_hidden, d_w2)
    return loss, grads


def rmsprop_step(model: MlpModel, grads: tuple[np.ndarray, ...]) -> MlpModel:
    """One RMSprop update; returns the updated model."""
    lr, decay = model.hyper.learning_rate, model.hyper.decay
    new_state = tuple(
        decay * v + (1.0 - decay) * g * g for v, g in zip(model.rms_state, grads)
    )
    new_weights = tuple(
        w - lr * g / (np.sqrt(v) + RMS_EPS)
        for w, g, v in zip(model.weights, grads, new_state)
    )
    return MlpModel(arch=model.arch, weights=new_weights, rms_state=new_state, hyper=model.hyper)


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
    if data.width != arch.input_width:
        raise DataError(f"architecture expects {arch.input_width} features, data has {data.width}")
    rng = np.random.default_rng(hyper.seed)
    model = init_model(arch, hyper, rng=rng)
    x, y = data.features, data.response.astype(np.float64)
    n = x.shape[0]
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            _, grads = loss_and_gradients(model, x[batch], y[batch])
            model = rmsprop_step(model, grads)
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
