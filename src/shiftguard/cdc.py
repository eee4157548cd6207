"""Constrained disagreement training and ensemble construction.

A constrained disagreement classifier (CDC) starts from a base model and
is pushed to disagree with it on a target set while a validation
constraint pins its in-distribution behavior: training aborts the moment
the validation metric drops more than a tolerance below the base model's
recorded score, and the last constraint-satisfying snapshot wins.  An
ensemble trains members sequentially, each one attacking only the target
samples every earlier member still agrees on.

Independent ensembles, one per target set and random stream, are built
together: ``build_ensembles`` trains each member round of every live run
at once, in groups of runs the learner can train together
(``learners.lockstep_key``: MLP runs that share how many target samples
still survive, any GBT runs), and ``train_cdc`` steps each group's runs
through ``learners.fit_disagreeing``, one call per epoch.
Pseudo-labels, validation checks and survivor predictions stay per run,
on the rows a run built alone would use, so every ensemble has the bytes
of its one-run ``build_ensemble``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learners import (
    LearnerConfig,
    Model,
    batches_per_epoch,
    check_disagreement_rows,
    evaluate_metric,
    fit_disagreeing,
    lockstep_key,
)
from .losses import lambda_weight
from .numerics import RngStream

__all__ = [
    "CdcTrainSpec",
    "CdcEnsemble",
    "pseudo_label",
    "train_cdc",
    "build_ensemble",
    "build_ensembles",
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


def train_cdc(config: LearnerConfig, P_train, P_val, Qs, f: Model,
              spec: CdcTrainSpec, rngs) -> list:
    """One constrained disagreement classifier per run, each on its own
    nonempty Q (X, pseudo) and stream; the runs share a
    ``learners.lockstep_key``.

    Each run trains for at most max_epochs_per_cdc epochs (rounds for
    trees) and stops the moment the validation metric falls more than
    val_tolerance below the base model's recorded score m0; its model is
    the last one that satisfied the constraint (the base model trivially
    does).  P_train, P_val and the Qs are checked once.  Each run's
    lambda follows its own |Q|; the runs share batches per epoch (the
    MLP's share |Q|, and a boosting round is one batch) and so the step
    budget, and the live runs train each epoch in one
    ``fit_disagreeing`` call; a run whose guard trips leaves the group.
    """
    if f.val_score is None:
        raise ValueError("base validation metric unavailable")
    m0 = f.val_score
    P_train, P_val, Qs = check_disagreement_rows(P_train, P_val, Qs,
                                                 f.num_classes)
    X_val, y_val = P_val
    n_qs = [X_q.shape[0] for X_q, _ in Qs]
    bpe = batches_per_epoch(config, P_train[0].shape[0], n_qs[0])
    lams = [lambda_weight(n_q, bpe) for n_q in n_qs]

    budget = spec.max_opt_steps
    last_good = [f] * len(Qs)
    live = list(range(len(Qs)))
    for _ in range(spec.max_epochs_per_cdc):
        if not live or (budget is not None and budget <= 0):
            break
        trained = fit_disagreeing(
            config, [last_good[r] for r in live], P_train, P_val,
            [Qs[r] for r in live], [lams[r] for r in live],
            [rngs[r] for r in live], max_steps=budget, checked=True)
        if budget is not None:
            budget -= bpe
        still = []
        for r, g in zip(live, trained):
            metric = evaluate_metric(g, X_val, y_val, config.val_metric)
            if metric < m0 - spec.val_tolerance:
                continue
            last_good[r] = g
            still.append(r)
        live = still
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
    return build_ensembles(config, P_train, P_val, [target_X], f, spec,
                           [rng])[0]


def build_ensembles(config: LearnerConfig, P_train, P_val, targets,
                    f: Model, spec: CdcTrainSpec, rngs) -> list:
    """``build_ensemble`` for each target set and its own stream, with the
    bytes of one call per run: each member round trains the live runs
    (those with samples left and fewer than ensemble_max members) in
    groups of one ``learners.lockstep_key``, one ``train_cdc`` call per
    group.  A member whose survivors are labelled drops its warm-start
    state."""
    targets = [np.asarray(X, dtype=np.float64) for X in targets]
    if any(X.shape[0] == 0 for X in targets):
        raise ValueError("target set must be nonempty")
    pseudo = [pseudo_label(f, X) for X in targets]
    surviving = [np.arange(X.shape[0]) for X in targets]
    ensembles = [CdcEnsemble(base=f) for _ in targets]
    for _ in range(spec.ensemble_max):
        groups = {}
        for r, rows in enumerate(surviving):
            if rows.size:
                groups.setdefault(lockstep_key(config, rows.size),
                                  []).append(r)
        for runs in groups.values():
            members = train_cdc(
                config, P_train, P_val,
                [(targets[r][surviving[r]], pseudo[r][surviving[r]])
                 for r in runs],
                f, spec, [rngs[r] for r in runs])
            for r, g in zip(runs, members):
                rows = surviving[r]
                preds = g.predict_labels(targets[r][rows])
                # a guard that trips at once leaves the base model, whose
                # state every later member round warm-starts from
                if g is not f:
                    g.drop_warm_start()
                surviving[r] = rows[preds == pseudo[r][rows]]
                ensembles[r].members.append(g)
                ensembles[r].per_round_phi.append(
                    1.0 - surviving[r].size / targets[r].shape[0])
    return ensembles


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
