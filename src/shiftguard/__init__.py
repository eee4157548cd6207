"""shiftguard: harmful-covariate-shift detection from small unlabeled samples.

Train ensembles of constrained disagreement classifiers against a
candidate sample, calibrate their disagreement rate and prediction
entropy on held-out training-distribution data, and turn both into
permutation-calibrated hypothesis tests.
"""

from .cdc import CdcEnsemble, CdcTrainSpec, build_ensemble, cdc_entropy
from .data import Dataset, ShiftTaskSpec, load_csv, partition, synth_generate
from .detectron import (
    BenchmarkTask,
    CalibratedTest,
    CalibrationRecord,
    PartitionedData,
    TestVerdict,
    calibrate,
    evaluate_power,
)
from .learners import GbtConfig, LearnerConfig, MlpConfig, fit, predict_proba
from .numerics import RngStream, rng_stream

__version__ = "0.1.0"

__all__ = [
    "CdcEnsemble", "CdcTrainSpec", "build_ensemble", "cdc_entropy",
    "Dataset", "ShiftTaskSpec", "load_csv", "partition", "synth_generate",
    "BenchmarkTask", "CalibrationRecord", "PartitionedData", "TestVerdict",
    "CalibratedTest", "calibrate", "evaluate_power",
    "GbtConfig", "LearnerConfig", "MlpConfig", "fit", "predict_proba",
    "RngStream", "rng_stream", "__version__",
]
