"""Differentially private dataset sketches and sketch-based estimation.

A dataset is compressed into a single noisy vector (the private sketch):
the sum of a randomized feature map over all records plus Laplace noise,
together with a noisy record count.  Arbitrarily many statistics can then
be estimated from that one vector by fitting linear models on synthetic
samples, without touching the data again.
"""

from .domain import Domain, DomainError, read_csv
from .feature_maps import (
    FeatureMap,
    HistMap,
    RffMap,
    RaceMap,
    build_map,
    build_race,
    build_rff,
    feature_map_from_dict,
)
from .sketch import (
    ExactSketch,
    PrivateSketch,
    SketchError,
    load_sketch,
    laplace_noise,
    privatize,
    save_sketch,
    sketch_exact,
    sketch_from_dict,
)
from .estimator import (
    SyntheticFeatures,
    TrainConfig,
    WeightedSamples,
    regularization_lambda,
    theorem_lambda,
)
from .targets import (
    BoxIndicator,
    CenteredProduct,
    Moment,
    Predicate,
    TargetError,
    answer_queries,
    estimate_cdf,
    estimate_covariance,
)
from .metrics import auc, emd_1d, frobenius, mae, mre
from .reweighting import (
    LogisticModel,
    fit_logistic_from_sketch,
    fit_weighted,
    logistic_objective,
)

__version__ = "0.1.0"
