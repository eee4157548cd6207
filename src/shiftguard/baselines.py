"""Comparison detectors under the same permutation-calibration harness.

Deep-ensemble disagreement and entropy tests, per-dimension softmax KS
with Bonferroni combination, and the classifier two-sample test.  Every
baseline emits the same verdict type as the primary detector, through the
same ``stats.NullReference`` rule over K null draws computed by the code
path used at test time, so power numbers are comparable by construction.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from .cdc import CdcEnsemble, cdc_entropy
from .detectron import PartitionedData, TestVerdict
from .learners import LearnerConfig, Model, fit
from .numerics import RngStream
from .stats import NullReference, binomial_pvalue, ks_two_sample

__all__ = [
    "train_ensemble",
    "make_baseline_detector",
]

DEFAULT_REF_SIZE = 1000  # reference pool cap for iid-assuming baselines
ENSEMBLE_SIZE = 10  # deep-ensemble members of the ensemble baselines


def train_ensemble(config: LearnerConfig, data: PartitionedData,
                   size: int, rng: RngStream) -> list[Model]:
    """Fit `size` (>= 2) models differing only in their random stream."""
    if size < 2:
        raise ValueError(f"ensemble size must be >= 2, got {size}")
    X, y = data.train_pair()
    Xv, yv = data.val_pair()
    return [fit(config, X, y, Xv, yv, rng.split(seed))
            for seed in range(size)]


# ---------------------------------------------------------------------------
# raw statistics (p-values); thresholds come from permutation calibration
# ---------------------------------------------------------------------------

def _ensemble_labels(models, X):
    return np.stack([m.predict_labels(X) for m in models], axis=0)


def _disagreement_mask(models, X) -> np.ndarray:
    """True where the ensemble's argmax votes are not unanimous."""
    labels = _ensemble_labels(models, X)
    return (labels != labels[0]).any(axis=0)


def ensemble_disagreement_stat(models, ref_X, Q_X) -> tuple[float, tuple]:
    """Binomial tail p-value for Q's non-unanimous count against the
    reference disagreement rate, kept as an exact fraction of counts
    (add-one smoothed at the degenerate edges, flagged)."""
    ref_dis = _disagreement_mask(models, ref_X)
    count, size = int(ref_dis.sum()), ref_dis.size
    p_hat = Fraction(count, size)
    flags = ()
    if count in (0, size):
        p_hat = Fraction(count + 1, size + 2)
        flags = ("smoothed_rate",)
    x = int(_disagreement_mask(models, Q_X).sum())
    return binomial_pvalue(x, Q_X.shape[0], p_hat), flags


def ensemble_entropy_stat(models, ref_X, Q_X) -> tuple[float, tuple]:
    """KS p-value between predictive-entropy distributions on Q and the
    reference sample."""
    ensemble = CdcEnsemble(base=models[0], members=models[1:])
    return ks_two_sample(cdc_entropy(ensemble, Q_X),
                         cdc_entropy(ensemble, ref_X)).p_value, ()


def bbsd_stat(f: Model, ref_X, Q_X) -> tuple[float, tuple]:
    """Per-class-dimension KS on softmax outputs, Bonferroni-combined.

    Combination multiplies the minimum p-value by the number of
    dimensions (clamped at 1); permutation calibration makes the verdict
    invariant to the monotone choice of combination direction.
    """
    probs_ref = f.predict_proba_matrix(ref_X)
    probs_q = f.predict_proba_matrix(Q_X)
    p_min = min(
        ks_two_sample(probs_q[:, c], probs_ref[:, c]).p_value
        for c in range(f.num_classes))
    return min(1.0, f.num_classes * p_min), ()


def ctst_stat(config: LearnerConfig, source_X, Q_X,
              rng: RngStream) -> tuple[float, tuple]:
    """Domain-classifier two-sample test.

    Train on half of Q against an equal-size source draw's first half
    (labels: source 0, target 1), then test held-out domain assignment
    accuracy against coin flipping with a binomial tail.
    """
    n_q = Q_X.shape[0]
    if n_q < 4:
        raise ValueError("insufficient samples to split")
    if source_X.shape[0] < n_q:
        raise ValueError("source pool smaller than the candidate sample")
    src = source_X[rng.sample_without_replacement(source_X.shape[0], n_q)]
    q_perm = Q_X[rng.permutation(n_q)]
    half = n_q // 2
    X_train = np.vstack([src[:half], q_perm[:half]])
    y_train = np.concatenate([np.zeros(half, np.int64),
                              np.ones(half, np.int64)])
    X_test = np.vstack([src[half:], q_perm[half:]])
    y_test = np.concatenate([np.zeros(n_q - half, np.int64),
                             np.ones(n_q - half, np.int64)])
    clf = fit(config, X_train, y_train, X_train, y_train, rng.split(17))
    x = int(np.sum(clf.predict_labels(X_test) == y_test))
    return binomial_pvalue(x, y_test.size, 0.5), ()


# ---------------------------------------------------------------------------
# permutation-calibrated harness
# ---------------------------------------------------------------------------

def make_baseline_detector(detector_id: str, config: LearnerConfig,
                           data: PartitionedData, f: Model, N: int,
                           K: int, alpha: float, rng: RngStream):
    """Calibrate one baseline; returns verdict_fn(Q_X, rng).

    The held-out pool is split (deterministically per rng) into a
    reference sample for the statistic and a null pool from which the K
    calibration draws come, so calibration draws stay exchangeable with a
    fresh null candidate sample.
    """
    holdout_X = data.holdout.features
    n_holdout = holdout_X.shape[0]
    perm = rng.split(0).permutation(n_holdout)
    n_ref = min(DEFAULT_REF_SIZE, n_holdout // 2)
    ref_X = holdout_X[perm[:n_ref]]
    null_pool = holdout_X[perm[n_ref:]]
    if null_pool.shape[0] < N:
        raise ValueError(
            "insufficient held-out data to calibrate a baseline: "
            f"null pool has {null_pool.shape[0]} rows, need {N}")

    if detector_id in ("ensemble_disagreement", "ensemble_entropy"):
        models = train_ensemble(config, data, ENSEMBLE_SIZE, rng.split(1))
        if detector_id == "ensemble_disagreement":
            stat_fn = lambda Q_X, r: ensemble_disagreement_stat(
                models, ref_X, Q_X)
        else:
            stat_fn = lambda Q_X, r: ensemble_entropy_stat(models, ref_X, Q_X)
    elif detector_id == "bbsd":
        stat_fn = lambda Q_X, r: bbsd_stat(f, ref_X, Q_X)
    elif detector_id == "ctst":
        stat_fn = lambda Q_X, r: ctst_stat(config, ref_X, Q_X, r)
    else:
        raise ValueError(f"unknown baseline detector {detector_id!r}")

    null_ps = []
    for i in range(K):
        run_rng = rng.split(100 + i)
        idx = run_rng.sample_without_replacement(null_pool.shape[0], N)
        null_ps.append(stat_fn(null_pool[idx], run_rng)[0])
    null = NullReference(null_ps, alpha, upper=False)

    def verdict_fn(Q_X, verdict_rng: RngStream) -> TestVerdict:
        Q_X = np.asarray(Q_X, dtype=np.float64)
        if Q_X.shape[0] != N:
            raise ValueError("sample size must match calibration")
        start = time.perf_counter()
        p_value, flags = stat_fn(Q_X, verdict_rng)
        elapsed = (time.perf_counter() - start) * 1000.0
        return TestVerdict.against(null, detector_id, p_value, verdict_rng,
                                   elapsed, N, flags=flags)

    return verdict_fn
