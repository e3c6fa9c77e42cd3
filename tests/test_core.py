"""Window geometry and dataset invariants, where `src/` reads outside text and
parses CSV, and the names the package exports."""

import ast
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import interconv
from interconv import (
    DataError,
    DiscreteDataset,
    GeometryError,
    GridShape,
    ImageSet,
    RealDataset,
    UndefinedMetricError,
    WindowSpec,
    auc,
    enumerate_windows,
    output_dim,
    output_grid,
    roc_curve,
    sensitivity,
    specificity,
)

# (axis length, start, window, stride) -> positions along the axis
REFERENCE_GEOMETRY = [
    ((128, 6, 2, 2), 61),
    ((128, 12, 2, 2), 58),
    ((3, 1, 2, 1), 2),
    ((6, 1, 2, 1), 5),
]


@pytest.mark.parametrize("case,expected", REFERENCE_GEOMETRY)
def test_reference_output_dims(case, expected):
    size, start, window, stride = case
    assert output_dim(size, WindowSpec(window=window, stride=stride, start=start)) == expected


def test_output_dim_formula_exactly():
    # floor((size - start - window + 1) / stride) + 1
    spec = WindowSpec(window=3, stride=2, start=2)
    assert output_dim(10, spec) == (10 - 2 - 3 + 1) // 2 + 1


def test_window_must_fit():
    with pytest.raises(GeometryError):
        output_dim(3, WindowSpec(window=4, stride=1))
    with pytest.raises(GeometryError):
        output_dim(6, WindowSpec(window=2, stride=1, start=7))
    # exactly one position is still legal
    assert output_dim(6, WindowSpec(window=2, stride=1, start=5)) == 1


def test_output_grid_rectangular():
    grid = output_grid(GridShape(6, 9), WindowSpec(window=2, stride=1))
    assert (grid.rows, grid.cols) == (5, 8)


def test_first_window_of_six_by_six():
    windows = enumerate_windows(GridShape(6, 6), WindowSpec(window=2, stride=1))
    assert len(windows) == 25
    # top-left window covers pixels X1, X2, X7, X8 (1-based)
    assert windows[0] == (0, 1, 6, 7)
    assert windows[1] == (1, 2, 7, 8)
    # first window of the second output row starts one grid row down
    assert windows[5] == (6, 7, 12, 13)


def test_windows_of_three_by_three():
    windows = enumerate_windows(GridShape(3, 3), WindowSpec(window=2, stride=1))
    assert windows == [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)]


def test_window_indices_are_row_major_inside():
    windows = enumerate_windows(GridShape(5, 5), WindowSpec(window=3, stride=2))
    assert windows[0] == (0, 1, 2, 5, 6, 7, 10, 11, 12)


def test_stride_and_start_offsets():
    windows = enumerate_windows(GridShape(128, 128), WindowSpec(window=2, stride=2, start=6))
    assert len(windows) == 61 * 61
    # corner of the first window sits at (row 6, col 6) 1-based
    assert windows[0][0] == 5 * 128 + 5


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 6),
)
def test_enumeration_matches_output_grid(rows, cols, window, stride, start):
    grid = GridShape(rows, cols)
    spec = WindowSpec(window=window, stride=stride, start=start)
    try:
        out = output_grid(grid, spec)
    except GeometryError:
        with pytest.raises(GeometryError):
            enumerate_windows(grid, spec)
        return
    windows = enumerate_windows(grid, spec)
    assert len(windows) == out.size
    for idx in windows:
        assert len(idx) == window * window
        assert all(0 <= v < grid.size for v in idx)
        # all pixels of a window share a contiguous row block
        top = idx[0] // cols
        assert idx[-1] // cols == top + window - 1


def test_grid_and_spec_validation():
    with pytest.raises(GeometryError):
        GridShape(0, 5)
    with pytest.raises(GeometryError):
        WindowSpec(window=0, stride=1)
    with pytest.raises(GeometryError):
        WindowSpec(window=2, stride=0)
    with pytest.raises(GeometryError):
        WindowSpec(window=2, stride=1, start=0)


def test_discrete_dataset_infers_levels():
    data = DiscreteDataset(np.array([[0, 2], [1, 0]]), np.array([0, 1]))
    assert data.level_counts.tolist() == [2, 3]
    assert data.n == 2 and data.width == 2


def test_discrete_dataset_accepts_integer_valued_floats():
    data = DiscreteDataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]))
    assert data.features.dtype == np.int64


@pytest.mark.parametrize(
    "features,response,levels",
    [
        (np.array([[0.5]]), np.array([0]), None),
        (np.array([[-1]]), np.array([0]), None),
        (np.array([[2]]), np.array([0]), np.array([2])),
        (np.array([[0]]), np.array([2]), None),
        (np.array([[0]]), np.array([[0]]), None),
        (np.array([0, 1]), np.array([0, 1]), None),
        (np.array([[np.inf]]), np.array([0]), None),
        (np.array([[0.0], [-np.inf]]), np.array([0, 1]), None),
    ],
)
@pytest.mark.filterwarnings("error")
def test_discrete_dataset_rejects_bad_input(features, response, levels):
    with pytest.raises(DataError):
        DiscreteDataset(features, response, levels)


def test_discrete_dataset_names_non_finite_input():
    with pytest.raises(DataError, match="finite"):
        DiscreteDataset(np.array([[np.inf]]), np.array([0]))


# every place that takes a 0/1 label vector: what it stores or returns for
# labels `y`, and the error it raises for labels that are not 0/1
SCORES = np.array([0.2, 0.9, 0.4, 0.6])
LABEL_BOUNDARIES = {
    "RealDataset": (lambda y: RealDataset(np.zeros((4, 1)), y).response, DataError),
    "DiscreteDataset": (lambda y: DiscreteDataset(np.zeros((4, 1), dtype=np.int64), y).response, DataError),
    "ImageSet": (lambda y: ImageSet(np.zeros((4, 1)), y, tuple("abcd"), GridShape(1, 1)).labels, DataError),
    "auc": (lambda y: auc(y, SCORES), UndefinedMetricError),
    "roc_curve": (lambda y: roc_curve(y, SCORES).sens, UndefinedMetricError),
    "sensitivity": (lambda y: sensitivity(y, SCORES, 0.5), UndefinedMetricError),
    "specificity": (lambda y: specificity(y, SCORES, 0.5), UndefinedMetricError),
}


@pytest.mark.parametrize("boundary", sorted(LABEL_BOUNDARIES))
@pytest.mark.parametrize("bad", [0.5, 1.7, -1, 2, np.nan])
def test_every_label_boundary_refuses_labels_other_than_0_and_1(boundary, bad):
    take, error = LABEL_BOUNDARIES[boundary]
    with pytest.raises(error):
        take(np.array([bad, 1, 1, 0]))


@pytest.mark.parametrize("boundary", sorted(LABEL_BOUNDARIES))
@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
def test_every_label_boundary_accepts_0_and_1_in_any_dtype(boundary, dtype):
    take, _ = LABEL_BOUNDARIES[boundary]
    labels = np.array([0, 1, 1, 0])
    got, want = take(labels.astype(dtype)), take(labels)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def test_datasets_share_input_that_needs_no_conversion():
    levels = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int64)
    values = np.array([[0.25], [0.5], [0.75]])
    response = np.array([0, 1, 1], dtype=np.int64)
    for data, given in (
        (DiscreteDataset(levels, response), levels),
        (RealDataset(values, response), values),
    ):
        assert np.shares_memory(data.features, given)
        assert np.shares_memory(data.response, response)
        assert not given.flags.writeable and not data.features.flags.writeable


def test_bool_levels_are_a_frozen_uint8_view_of_the_input():
    levels = np.array([[True, False], [False, True], [True, True]])
    data = DiscreteDataset(levels, np.array([0, 1, 1]))
    assert data.features.dtype == np.uint8
    assert np.shares_memory(data.features, levels)
    assert data.features.tolist() == levels.astype(int).tolist()
    assert data.level_counts.dtype == np.int64 and data.level_counts.tolist() == [2, 2]
    # the caller's array is frozen too, so no write through it reaches the view
    with pytest.raises(ValueError):
        levels[0, 0] = False
    with pytest.raises(ValueError):
        data.features[0, 0] = 0


def test_bool_levels_still_check_their_level_counts():
    levels = np.array([[True], [False]])
    assert DiscreteDataset(levels, np.array([0, 1]), np.array([3])).level_counts.tolist() == [3]
    with pytest.raises(DataError):
        DiscreteDataset(levels, np.array([0, 1]), np.array([1]))
    with pytest.raises(DataError):
        DiscreteDataset(levels, np.array([0, 1]), np.array([2, 2]))


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32, np.uint64, np.float32, np.float64])
def test_levels_other_than_bool_become_int64(dtype):
    data = DiscreteDataset(np.array([[0, 1], [1, 0]], dtype=dtype), np.array([0, 1]))
    assert data.features.dtype == np.int64
    assert data.features.tolist() == [[0, 1], [1, 0]]


def test_inferred_level_counts_do_not_wrap_in_a_narrow_dtype():
    data = DiscreteDataset(np.array([[255, 1], [0, 0]], dtype=np.uint8), np.array([0, 1]))
    assert data.level_counts.tolist() == [256, 2]
    with pytest.raises(DataError):
        DiscreteDataset(np.array([[255]], dtype=np.uint8), np.array([0]), np.array([255]))


def test_datasets_are_frozen():
    ddata = DiscreteDataset(np.array([[0], [1]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        ddata.features[0, 0] = 1
    rdata = RealDataset(np.array([[0.25], [0.5]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        rdata.response[0] = 1


def test_real_dataset_rejects_non_finite():
    with pytest.raises(DataError):
        RealDataset(np.array([[np.nan]]), np.array([0]))
    with pytest.raises(DataError):
        RealDataset(np.array([[np.inf]]), np.array([1]))


def _reads_text(call: ast.Call) -> bool:
    """Whether a call is `.read_text(...)` or an `open` whose mode can read."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    # the mode is the second argument of the builtin and the first of Path.open
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position : position + 1]
    if not modes:
        return True  # the default mode is "r"
    return not (isinstance(modes[0], ast.Constant) and set(modes[0].value) & set("wax"))


def outside_text_sites():
    """(what, module, enclosing function) of every text read and every
    handler naming UnicodeDecodeError in `src/interconv`."""
    found = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call) and _reads_text(child):
                found.append(("read", module, inner))
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "UnicodeDecodeError" in ast.unparse(child.type):
                    found.append(("decode", module, inner))
            visit(child, module, inner)

    for path in sorted((Path(__file__).parents[1] / "src" / "interconv").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_outside_text_is_read_in_one_place():
    """Only `core._read_text` opens text for reading; it and the bundle's
    section reader are the only handlers of UnicodeDecodeError. Writers and
    the binary `read_bytes` of PGM files and bundles are not text reads."""
    assert sorted(outside_text_sites()) == [
        ("decode", "core", "_read_text"),
        ("decode", "dataio", "_read_sections"),
        ("read", "core", "_read_text"),
    ]


def test_csv_is_parsed_in_one_place():
    """Only `core._csv_records` runs `csv.reader`, so every table takes its
    first non-empty record as the header by the same rule."""
    sites = []
    for path in sorted((Path(__file__).parents[1] / "src" / "interconv").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                sites += [(path.stem, func.name) for node in ast.walk(func) if ast.unparse(node) == "csv.reader"]
    assert sites == [("core", "_csv_records")]


# Every public name the package exports, modules aside: a change to this
# list is a change to the public surface.
PUBLIC_NAMES = [
    "BdaStep", "BdaTrace", "BundleFormatError", "BundleIntegrityError", "BundleVersionError", "ConfigError",
    "ConvStack", "DataError", "DiscreteDataset", "Discretizer", "EvalSummary", "FittedConvLayer",
    "GENERATOR_ID", "GeometryError", "GridShape", "ImageSet", "InfluenceScore", "InterconvError",
    "MlpArchitecture", "MlpModel", "ModelBundle", "NumericError", "ParityModelSpec", "PipelineConfig",
    "RealDataset", "RocCurve", "TrainResult", "TrainingHyper", "UndefinedMetricError", "WindowFeature",
    "WindowSpec", "apply_discretizer", "auc", "augment_images", "backward_drop", "bce_loss", "encode_cells",
    "enumerate_windows", "evaluate_bundle", "fit_discretizer", "fit_layer", "fit_pipeline", "forward",
    "generate", "influence_score", "init_model", "load_bundle", "load_images", "output_dim", "output_grid",
    "param_count", "partition_stats", "predict_bundle", "preset_config", "read_dataset_csv", "read_pgm",
    "roc_curve", "save_bundle", "sensitivity", "specificity", "split_images", "stack_layers",
    "stack_outputs", "theoretical_rate", "train", "transform", "transform_stack", "write_dataset_csv",
    "write_pgm", "write_roc_csv",
]


def test_public_surface_is_pinned():
    public = sorted(
        name for name, value in vars(interconv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
    assert len(public) == 70
