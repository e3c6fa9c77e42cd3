"""Classifier math: exact architecture sizes, activations bitwise against
their reference forms, gradients against central finite differences, frozen
RMSprop update values, `train` against a replay with the public step, and
one fit's trained numbers pinned by hash for every classifier shape."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    finite_difference_grads,
    loss_and_gradients,
    reference_sigmoid,
    reference_softmax,
    rmsprop_step,
)

from interconv import (
    ConfigError,
    DataError,
    MlpArchitecture,
    NumericError,
    ParityModelSpec,
    PipelineConfig,
    RealDataset,
    TrainingHyper,
    WindowSpec,
    bce_loss,
    fit_pipeline,
    forward,
    generate,
    init_model,
    param_count,
    train,
)
from interconv.nn import MlpModel, _sigmoid, _softmax, write_loss_csv

# (input, hidden, output_units) -> expected weight count; no bias terms,
# so every count is a plain sum of matrix sizes
REFERENCE_SIZES = [
    ((3721, None, 2), 7_442),
    ((3721, 64, 2), 238_272),
    ((900, None, 2), 1_800),
    ((900, 64, 2), 57_728),
    ((4621, None, 2), 9_242),
    ((4621, 64, 2), 295_872),
]


@pytest.mark.parametrize("shape,expected", REFERENCE_SIZES)
def test_reference_parameter_counts(shape, expected):
    width, hidden, out = shape
    arch = MlpArchitecture(input_width=width, hidden=hidden, output_units=out)
    assert param_count(arch) == expected


def test_layer_shapes():
    arch = MlpArchitecture(input_width=5, hidden=3, output_units=2)
    assert arch.layer_shapes() == [(5, 3), (3, 2)]
    flat = MlpArchitecture(input_width=5, hidden=None, output_units=1)
    assert flat.layer_shapes() == [(5, 1)]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"input_width": 0},
        {"input_width": 4, "hidden": 0},
        {"input_width": 4, "output_units": 3},
        {"input_width": 4, "output_units": 0},
    ],
)
def test_architecture_validation(kwargs):
    with pytest.raises(ConfigError):
        MlpArchitecture(**kwargs)


def test_init_is_seeded_uniform():
    arch = MlpArchitecture(input_width=40, hidden=8, output_units=2)
    a = init_model(arch, TrainingHyper(seed=7))
    b = init_model(arch, TrainingHyper(seed=7))
    c = init_model(arch, TrainingHyper(seed=8))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    flat = np.concatenate([w.ravel() for w in a.weights])
    assert flat.min() > -0.05 and flat.max() < 0.05
    for v in a.rms_state:
        assert not v.any()


def test_forward_sigmoid_value():
    arch = MlpArchitecture(input_width=1, hidden=None, output_units=1)
    model = MlpModel(
        arch=arch, weights=(np.array([[1.0]]),), rms_state=(np.zeros((1, 1)),)
    )
    assert forward(model, np.array([1.0])) == pytest.approx(0.7310585786300049, abs=1e-15)
    # extreme inputs saturate instead of overflowing
    assert forward(model, np.array([1000.0])) == 1.0
    assert forward(model, np.array([-1000.0])) == 0.0


def test_softmax_matches_sigmoid_of_logit_difference():
    # for two output units, P(class 1) = sigmoid(z1 - z0)
    arch = MlpArchitecture(input_width=2, hidden=None, output_units=2)
    w = np.array([[0.3, -0.4], [0.1, 0.9]])
    model = MlpModel(arch=arch, weights=(w,), rms_state=(np.zeros_like(w),))
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    z = x @ w
    expected = 1.0 / (1.0 + np.exp(-(z[:, 1] - z[:, 0])))
    assert forward(model, x) == pytest.approx(expected, abs=1e-12)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LOGIT = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0])
# a row of two logits, or one logit in both columns (a tie)
LOGIT_PAIR = st.tuples(LOGIT, LOGIT) | LOGIT.map(lambda v: (v, v))


@settings(max_examples=300, deadline=None)
@given(st.lists(LOGIT_PAIR, min_size=1, max_size=40))
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)])
@example([(1e3, 1e3), (-1e3, -1e3), (1e3, -1e3), (-1e3, 1e3), (5e-324, -5e-324)])
def test_activations_are_bitwise_equal_to_their_references(rows):
    z = np.array(rows, dtype=np.float64)
    assert _bitwise_equal(_softmax(z), reference_softmax(z))
    assert _bitwise_equal(_sigmoid(z), reference_sigmoid(z))
    assert _bitwise_equal(_sigmoid(z[:, :1]), reference_sigmoid(z[:, :1]))


def test_activations_agree_with_their_references_on_non_finite_logits():
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1e3]
    z = np.array(list(itertools.product(special, repeat=2)))
    # inf - inf in the softmax shift is NaN in both forms
    with np.errstate(invalid="ignore"):
        fast, ref = _softmax(z), reference_softmax(z)
    assert np.array_equal(fast, ref, equal_nan=True)
    assert np.isnan(fast).any()
    assert np.array_equal(_sigmoid(z), reference_sigmoid(z), equal_nan=True)


def test_forward_single_row_returns_scalar():
    arch = MlpArchitecture(input_width=3, hidden=None, output_units=2)
    model = init_model(arch)
    out = forward(model, np.array([0.1, 0.2, 0.3]))
    assert isinstance(out, float)


def test_bce_known_values():
    assert bce_loss([1, 0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert bce_loss([1], [1.0]) == pytest.approx(0.0, abs=1e-9)
    # clamped, not infinite, at a confidently wrong prediction
    assert bce_loss([1], [0.0]) == pytest.approx(-math.log(1e-12))


def _model_loss(arch, weights, x, y):
    model = MlpModel(arch=arch, weights=weights, rms_state=tuple(np.zeros_like(w) for w in weights))
    return bce_loss(y, forward(model, x))


@pytest.mark.parametrize("hidden", [None, 4])
@pytest.mark.parametrize("output_units", [1, 2])
def test_gradients_match_finite_differences(hidden, output_units, rng):
    arch = MlpArchitecture(input_width=5, hidden=hidden, output_units=output_units)
    for _ in range(5):
        model = init_model(arch, TrainingHyper(seed=int(rng.integers(1 << 30))))
        x = rng.normal(size=(7, 5))
        y = rng.integers(0, 2, size=7).astype(float)
        loss, grads = loss_and_gradients(model, x, y)
        assert loss == pytest.approx(_model_loss(arch, model.weights, x, y), abs=1e-12)
        numeric = finite_difference_grads(
            lambda ws: _model_loss(arch, ws, x, y), model.weights
        )
        for g, ng in zip(grads, numeric):
            scale = max(np.abs(ng).max(), 1e-8)
            assert np.abs(g - ng).max() / scale < 1e-5


def test_rmsprop_frozen_step_values():
    # single weight, gradient 2.0 twice, default lr=0.001 decay=0.9:
    #   v1 = 0.1 * 4          w1 = w0 - 0.001 * 2 / (sqrt(v1) + 1e-8)
    #   v2 = 0.9 * v1 + 0.4   w2 = w1 - 0.001 * 2 / (sqrt(v2) + 1e-8)
    arch = MlpArchitecture(input_width=1, hidden=None, output_units=1)
    model = MlpModel(
        arch=arch, weights=(np.array([[0.25]]),), rms_state=(np.zeros((1, 1)),)
    )
    g = (np.array([[2.0]]),)
    step1 = rmsprop_step(model, g)
    assert step1.rms_state[0][0, 0] == pytest.approx(0.4, rel=1e-12)
    assert step1.weights[0][0, 0] == pytest.approx(0.24683772238983162, abs=1e-15)
    step2 = rmsprop_step(step1, g)
    assert step2.rms_state[0][0, 0] == pytest.approx(0.76, rel=1e-12)
    assert step2.weights[0][0, 0] == pytest.approx(0.2445435650774418, abs=1e-15)
    # the input model is untouched
    assert model.weights[0][0, 0] == 0.25
    assert model.rms_state[0][0, 0] == 0.0


def _separable_data(n=120, seed=3):
    gen = np.random.default_rng(seed)
    y = gen.integers(0, 2, size=n)
    x = gen.normal(size=(n, 4)) + 2.0 * y[:, np.newaxis]
    return RealDataset(x, y)


def test_training_reduces_loss():
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=2)
    result = train(arch, data, TrainingHyper(epochs=30))
    assert len(result.train_losses) == 30
    assert result.train_losses[-1] < result.train_losses[0] - 0.15
    assert result.val_losses is None


def test_training_is_deterministic():
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=3, output_units=2)
    a = train(arch, data, TrainingHyper(epochs=5, seed=11))
    b = train(arch, data, TrainingHyper(epochs=5, seed=11))
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)
    assert a.train_losses == b.train_losses


def test_zero_epochs_keeps_initial_weights():
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=2)
    hyper = TrainingHyper(epochs=0, seed=5)
    result = train(arch, data, hyper)
    init = init_model(arch, hyper)
    for wa, wb in zip(result.model.weights, init.weights):
        assert np.array_equal(wa, wb)
    assert result.train_losses == ()


def test_init_and_shuffling_share_one_stream():
    """One epoch replayed by hand: the generator that draws the initial
    weights goes on to draw the batch order."""
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=3, output_units=2)
    hyper = TrainingHyper(epochs=1, batch_size=32, seed=4)
    result = train(arch, data, hyper)
    rng = np.random.default_rng(hyper.seed)
    model = init_model(arch, hyper, rng=rng)
    order = rng.permutation(data.n)
    y = data.response.astype(np.float64)
    for lo in range(0, data.n, hyper.batch_size):
        batch = order[lo : lo + hyper.batch_size]
        _, grads = loss_and_gradients(model, data.features[batch], y[batch])
        model = rmsprop_step(model, grads)
    for wa, wb in zip(result.model.weights, model.weights, strict=True):
        assert np.array_equal(wa, wb)
    assert result.train_losses == (bce_loss(y, forward(model, data.features)),)


def _assert_train_matches_a_replay(hidden, output_units, batch_size):
    """Three epochs replayed with the public, checked and copying, step and
    fancy-indexed batches: `train`'s in-place step without a batch loss, and
    its `take` gathers, must agree bitwise."""
    data, val = _separable_data(n=100, seed=1), _separable_data(n=30, seed=2)
    arch = MlpArchitecture(input_width=4, hidden=hidden, output_units=output_units)
    hyper = TrainingHyper(epochs=3, batch_size=batch_size, seed=6)
    result = train(arch, data, hyper, val_data=val)
    rng = np.random.default_rng(hyper.seed)
    model = init_model(arch, hyper, rng=rng)
    y = data.response.astype(np.float64)
    train_losses, val_losses = [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(data.n)
        for lo in range(0, data.n, hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            loss, grads = loss_and_gradients(model, data.features[batch], y[batch])
            assert loss == bce_loss(y[batch], forward(model, data.features[batch]))
            before = [a.copy() for a in model.weights + model.rms_state]
            stepped = rmsprop_step(model, grads)
            for a, b in zip(model.weights + model.rms_state, before, strict=True):
                assert np.array_equal(a, b)
            model = stepped
        train_losses.append(bce_loss(y, forward(model, data.features)))
        val_losses.append(bce_loss(val.response, forward(model, val.features)))
    for a, b in zip(result.model.weights + result.model.rms_state, model.weights + model.rms_state, strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.array(result.train_losses).tobytes() == np.array(train_losses).tobytes()
    assert np.array(result.val_losses).tobytes() == np.array(val_losses).tobytes()


@pytest.mark.parametrize("hidden", [None, 3])
@pytest.mark.parametrize("output_units", [1, 2])
def test_train_matches_a_replay_by_hand(hidden, output_units):
    _assert_train_matches_a_replay(hidden, output_units, batch_size=32)  # 100 rows: a last batch of 4


@pytest.mark.parametrize("hidden", [None, 3])
@pytest.mark.parametrize("output_units", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 150])
def test_train_matches_a_replay_at_batch_edges(hidden, output_units, batch_size):
    """One row per batch, and one short batch per epoch (150 > 100 rows)."""
    _assert_train_matches_a_replay(hidden, output_units, batch_size)


def test_validation_width_is_checked_before_training():
    data = _separable_data()
    val = RealDataset(np.zeros((5, 3)), np.array([0, 1, 0, 1, 0]))
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=2)
    # with a learning rate this large, a first epoch would diverge and raise
    # NumericError before forward could see the width
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="4 features, validation data has 3"):
            train(arch, data, TrainingHyper(learning_rate=1e307, epochs=3), val_data=val)


def test_validation_losses_recorded():
    data = _separable_data(seed=1)
    val = _separable_data(seed=2)
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=1)
    result = train(arch, data, TrainingHyper(epochs=4), val_data=val)
    assert len(result.val_losses) == 4
    assert all(math.isfinite(v) for v in result.val_losses)


def test_divergence_raises_with_learning_rate_hint():
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=2)
    # a step this large overflows the logits, which is the only way the
    # clamped loss can go non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="learning_rate"):
            train(arch, data, TrainingHyper(learning_rate=1e307, epochs=3))


def test_loss_csv_format(tmp_path):
    data = _separable_data()
    arch = MlpArchitecture(input_width=4, hidden=None, output_units=2)
    result = train(arch, data, TrainingHyper(epochs=3), val_data=data)
    path = tmp_path / "loss.csv"
    write_loss_csv(path, result)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == result.train_losses[0]
    assert float(first[2]) == result.val_losses[0]


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_hyper_validation_learning_rate(bad):
    with pytest.raises(ConfigError):
        TrainingHyper(learning_rate=bad)


def test_hyper_validation_bounds():
    with pytest.raises(ConfigError):
        TrainingHyper(decay=1.0)
    with pytest.raises(ConfigError):
        TrainingHyper(epochs=-1)
    with pytest.raises(ConfigError):
        TrainingHyper(batch_size=0)


# SHA-256 of the trained weights' bytes followed by the train_losses bytes
# for the fit below; any change to training arithmetic, however small,
# changes it
TRAINED_SHA256 = "ebca7f9a84cd060c3815923ab31acf62e84d0e123908f1b95258b6d8b463dcb1"
# the same digest for the other classifier shapes, keyed by (hidden, output_units)
TRAINED_SHA256_BY_SHAPE = {
    (None, 1): "eaa748f287191621cd40b992c835577181413da9d0be3c0c813f73d21e451af5",
    (4, 1): "5718a2c5185148477f5cfa0ee36cdf7fff2c954d16d3e7de21986e58efc8e5c9",
    (4, 2): "713ef71ab4dc69313eecf7e0967e0efa86d40b24ccd53ff752e31000c0e1d6cd",
}


def _trained_digest(hidden=None, output_units=2):
    rows, _ = generate(ParityModelSpec(seed=1))
    data = RealDataset(rows.features.astype(np.float64), rows.response)
    config = PipelineConfig(
        discretizer="global:0.5",
        layers=(WindowSpec(window=2, stride=1),),
        hidden=hidden,
        output_units=output_units,
    )
    _, report = fit_pipeline(config, data)
    result = report.train_result
    digest = hashlib.sha256()
    for w in result.model.weights:
        digest.update(w.tobytes())
    digest.update(np.array(result.train_losses).tobytes())
    return digest.hexdigest()


def test_trained_weights_and_losses_are_pinned():
    assert _trained_digest() == TRAINED_SHA256


@pytest.mark.parametrize("hidden,output_units", list(TRAINED_SHA256_BY_SHAPE))
def test_trained_weights_and_losses_are_pinned_for_the_other_shapes(hidden, output_units):
    assert _trained_digest(hidden, output_units) == TRAINED_SHA256_BY_SHAPE[hidden, output_units]
