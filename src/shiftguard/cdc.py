"""Constrained disagreement training and ensemble construction.

A constrained disagreement classifier (CDC) starts from a base model and
is pushed to disagree with it on a target set while a validation
constraint pins its in-distribution behavior: training aborts the moment
the validation metric drops more than a tolerance below the base model's
recorded score, and the last constraint-satisfying snapshot wins.  An
ensemble trains members sequentially, each one attacking only the target
samples every earlier member still agrees on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learners import (
    LearnerConfig,
    Model,
    batches_per_epoch,
    evaluate_metric,
    fit_disagreeing,
)
from .losses import lambda_weight
from .numerics import RngStream

__all__ = [
    "CdcTrainSpec",
    "CdcEnsemble",
    "pseudo_label",
    "train_cdc",
    "build_ensemble",
    "cdc_entropy",
]


@dataclass(frozen=True)
class CdcTrainSpec:
    """Knobs for disagreement training.

    max_opt_steps caps total optimization steps per CDC (batches for the
    MLP, boosting rounds for trees) on top of the validation-drop guard;
    runaway budgets let disagreement saturate on in-distribution data and
    drain the test of power.
    """
    ensemble_max: int = 5
    val_tolerance: float = 0.05
    max_epochs_per_cdc: int = 10
    max_opt_steps: int | None = None

    def __post_init__(self):
        if self.ensemble_max < 1:
            raise ValueError("ensemble_max must be >= 1")
        if not 0.0 < self.val_tolerance <= 1.0:
            raise ValueError("val_tolerance must be in (0, 1]")
        if self.max_epochs_per_cdc < 1:
            raise ValueError("max_epochs_per_cdc must be >= 1")
        if self.max_opt_steps is not None and self.max_opt_steps < 1:
            raise ValueError("max_opt_steps must be >= 1 when set")


@dataclass
class CdcEnsemble:
    """Base model plus trained CDCs with per-round disagreement records."""
    base: Model
    members: list = field(default_factory=list)
    per_round_phi: list = field(default_factory=list)

    @property
    def phi_final(self) -> float:
        if not self.per_round_phi:
            return 0.0
        return self.per_round_phi[-1]

    def all_models(self) -> list:
        return [self.base, *self.members]


def pseudo_label(f: Model, X_q: np.ndarray) -> np.ndarray:
    """Label every target row with the base model's predicted class."""
    return f.predict_labels(np.asarray(X_q, dtype=np.float64))


def train_cdc(config: LearnerConfig, P_train, P_val, Q_pseudo, f: Model,
              spec: CdcTrainSpec, rng: RngStream) -> Model:
    """One constrained disagreement classifier on a nonempty Q.

    Trains for at most max_epochs_per_cdc epochs (rounds for trees) and
    stops the moment the validation metric falls more than val_tolerance
    below the base model's recorded score m0; the returned model is the
    last one that satisfied the constraint (the base model trivially
    does).
    """
    if f.val_score is None:
        raise ValueError("base validation metric unavailable")
    m0 = f.val_score
    X_val, y_val = P_val
    n_q = np.asarray(Q_pseudo[0]).shape[0]
    bpe = batches_per_epoch(config, np.asarray(P_train[0]).shape[0], n_q)
    lam = lambda_weight(n_q, bpe)

    budget = spec.max_opt_steps
    current = last_good = f
    for _ in range(spec.max_epochs_per_cdc):
        if budget is not None and budget <= 0:
            break
        current = fit_disagreeing(config, current, P_train, P_val, Q_pseudo,
                                  lam, rng, max_steps=budget)
        if budget is not None:
            budget -= bpe
        metric = evaluate_metric(current, X_val, y_val, config.val_metric)
        if metric < m0 - spec.val_tolerance:
            break
        last_good = current
    return last_good


def build_ensemble(config: LearnerConfig, P_train, P_val, target_X,
                   f: Model, spec: CdcTrainSpec, rng: RngStream
                   ) -> CdcEnsemble:
    """Train CDCs until the target set is fully disagreed on or the
    ensemble cap is reached.

    After each member, samples where any member's prediction differs from
    the base model's leave the surviving set; phi is the disagreed-on
    fraction after each round and is non-decreasing by construction.
    """
    target_X = np.asarray(target_X, dtype=np.float64)
    n_q = target_X.shape[0]
    if n_q == 0:
        raise ValueError("target set must be nonempty")
    pseudo = pseudo_label(f, target_X)
    surviving = np.arange(n_q)
    ensemble = CdcEnsemble(base=f)
    while surviving.size > 0 and len(ensemble.members) < spec.ensemble_max:
        g = train_cdc(config, P_train, P_val,
                      (target_X[surviving], pseudo[surviving]),
                      f, spec, rng)
        preds = g.predict_labels(target_X[surviving])
        surviving = surviving[preds == pseudo[surviving]]
        ensemble.members.append(g)
        ensemble.per_round_phi.append(1.0 - surviving.size / n_q)
    return ensemble


def cdc_entropy(ensemble: CdcEnsemble, X) -> np.ndarray:
    """Prediction entropy of the ensemble-mean class probabilities, one
    value per row of the (n, d) matrix X.

    p_hat averages the base model and every member; entropy is natural-log
    and lies in [0, log N].
    """
    X = np.asarray(X, dtype=np.float64)
    models = ensemble.all_models()
    p_hat = models[0].predict_proba_matrix(X)
    for m in models[1:]:
        p_hat = p_hat + m.predict_proba_matrix(X)
    p_hat /= len(models)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p_hat > 0.0, p_hat * np.log(p_hat), 0.0)
    return -terms.sum(axis=1)
