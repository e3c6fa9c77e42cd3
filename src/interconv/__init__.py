"""Interaction-screened window features with influence-score selection.

The pipeline binarizes grid data, slides windows over the grid, keeps the
strongest variable subset inside each window by backward dropping on the
standardized influence score, replaces each window by the training local
response mean of its selected cell, and trains a small fully-connected
classifier on the engineered features.
"""

from .convlayer import (
    ConvStack,
    FittedConvLayer,
    WindowFeature,
    fit_layer,
    stack_layers,
    stack_outputs,
    transform,
    transform_stack,
)
from .core import DiscreteDataset, GridShape, RealDataset, WindowSpec, enumerate_windows, output_dim, output_grid
from .dataio import (
    ImageSet,
    ModelBundle,
    augment_images,
    load_bundle,
    load_images,
    read_dataset_csv,
    save_bundle,
    split_images,
    write_dataset_csv,
)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import (
    BundleFormatError,
    BundleIntegrityError,
    BundleVersionError,
    ConfigError,
    DataError,
    GeometryError,
    InterconvError,
    NumericError,
    UndefinedMetricError,
)
from .iscore import (
    BdaStep,
    BdaTrace,
    InfluenceScore,
    backward_drop,
    encode_cells,
    influence_score,
    partition_stats,
)
from .metrics import RocCurve, auc, roc_curve, sensitivity, specificity, write_roc_csv
from .nn import (
    MlpArchitecture,
    MlpModel,
    TrainResult,
    TrainingHyper,
    bce_loss,
    forward,
    init_model,
    param_count,
    train,
)
from .pgm import read_pgm, write_pgm
from .pipeline import (
    EvalSummary,
    PipelineConfig,
    evaluate_bundle,
    fit_pipeline,
    predict_bundle,
    preset_config,
)
from .synth import GENERATOR_ID, ParityModelSpec, generate, theoretical_rate

__version__ = "0.1.0"
