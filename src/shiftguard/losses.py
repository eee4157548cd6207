"""Classification losses for constrained disagreement training.

The disagreement cross-entropy (DCE) is the cross-entropy of a prediction
against the uniform distribution over every class except a target class:
minimizing it pushes probability mass away from the target while keeping
the prediction high-entropy.  For two classes it reduces exactly to
cross-entropy against the flipped label.  A replication scheme converts
the same objective into plain weighted labels for learners that cannot
consume gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import log_sum_exp, log_softmax_rows, softmax, softmax_rows

__all__ = [
    "DisagreementTarget",
    "cross_entropy",
    "disagreement_cross_entropy",
    "cross_entropy_batch",
    "disagreement_cross_entropy_batch",
    "lambda_weight",
    "cdc_batch_loss",
    "replicate_for_disagreement",
]


@dataclass(frozen=True)
class DisagreementTarget:
    """Class a disagreeing model must avoid, out of num_classes."""
    target_class: int
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes to disagree")
        if not 0 <= self.target_class < self.num_classes:
            raise ValueError(
                f"target_class {self.target_class} outside "
                f"[0, {self.num_classes})")


def cross_entropy(logits, y: int) -> tuple[float, np.ndarray]:
    """Standard cross-entropy on logits; returns (loss, d loss / d logits).

    loss = log_sum_exp(l) - l_y, grad = softmax(l) - onehot(y).
    """
    arr = np.asarray(logits, dtype=np.float64).ravel()
    n = arr.size
    if not 0 <= y < n:
        raise ValueError(f"label {y} outside [0, {n})")
    loss = log_sum_exp(arr) - float(arr[y])
    grad = softmax(arr)
    grad[y] -= 1.0
    return max(loss, 0.0), grad


def disagreement_cross_entropy(
        logits, target: DisagreementTarget) -> tuple[float, np.ndarray]:
    """DCE on logits: cross-entropy against uniform over non-target classes.

    In logit form: loss = -(1/(N-1)) * sum_{i != t} l_i + log_sum_exp(l),
    grad_j = softmax(l)_j - (1/(N-1)) * [j != t].  For N = 2 this equals
    cross_entropy(l, 1 - t) exactly.
    """
    arr = np.asarray(logits, dtype=np.float64).ravel()
    n = arr.size
    if n != target.num_classes:
        raise ValueError("logit length does not match num_classes")
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    t = target.target_class
    off_sum = float(arr.sum() - arr[t])
    loss = -off_sum / (n - 1) + log_sum_exp(arr)
    grad = softmax(arr)
    grad -= 1.0 / (n - 1)
    grad[t] += 1.0 / (n - 1)
    return loss, grad


def cross_entropy_batch(logits: np.ndarray,
                        labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cross-entropy over an (B, N) logit matrix.

    Returns per-row losses (B,) and gradients (B, N).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b = logits.shape[0]
    logp = log_softmax_rows(logits)
    losses = -logp[np.arange(b), labels]
    grads = softmax_rows(logits)
    grads[np.arange(b), labels] -= 1.0
    return losses, grads


def disagreement_cross_entropy_batch(
        logits: np.ndarray,
        targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized DCE over an (B, N) logit matrix (targets are the classes
    to avoid)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    b, n = logits.shape
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    logp = log_softmax_rows(logits)
    rows = np.arange(b)
    losses = -(logp.sum(axis=1) - logp[rows, targets]) / (n - 1)
    grads = softmax_rows(logits) - 1.0 / (n - 1)
    grads[rows, targets] += 1.0 / (n - 1)
    return losses, grads


def lambda_weight(q_size: int, batches_per_epoch: int = 1) -> float:
    """Disagreement weight 1 / ((|Q| + 1) * batches_per_epoch).

    With one batch per epoch this is the plain 1/(|Q|+1) rule; when every
    batch carries all of Q the extra factor undoes the artificial
    inflation of Q across an epoch.
    """
    if q_size < 1:
        raise ValueError("q_size must be >= 1")
    if batches_per_epoch < 1:
        raise ValueError("batches_per_epoch must be >= 1")
    return 1.0 / ((q_size + 1) * batches_per_epoch)


def cdc_batch_loss(logits: np.ndarray, labels: np.ndarray,
                   weights: np.ndarray, disagree: np.ndarray,
                   lam: float) -> tuple[float, np.ndarray]:
    """Combined agree/disagree objective over a batch.

    Agree rows contribute weight * cross_entropy(l, label); disagree rows
    contribute weight * lam * DCE(l, label-as-target).  The batch is
    normalized by total weight, which coincides with the plain batch mean
    when all weights are 1 and makes "weight k" identical to "k copies".
    Returns (loss, d loss / d logits) with gradients already normalized.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    disagree = np.asarray(disagree, dtype=bool)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    losses = np.empty(logits.shape[0])
    grads = np.empty_like(logits)
    agree = ~disagree
    if agree.any():
        l_a, g_a = cross_entropy_batch(logits[agree], labels[agree])
        losses[agree] = l_a
        grads[agree] = g_a
    if disagree.any():
        l_d, g_d = disagreement_cross_entropy_batch(
            logits[disagree], labels[disagree])
        losses[disagree] = lam * l_d
        grads[disagree] = lam * g_d

    total_w = weights.sum()
    loss = float((weights * losses).sum() / total_w)
    grads *= (weights / total_w)[:, None]
    return loss, grads


def replicate_for_disagreement(X, targets, num_classes: int,
                               weight: float = 1.0
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rewrite disagreement rows as N-1 weighted ordinary rows each.

    Row i of X becomes one replica per class other than targets[i], in
    ascending class order and contiguous per row, each of weight
    weight / (N-1); summing weight * cross_entropy over a row's replicas
    reproduces weight * DCE exactly, so weight-aware learners need no
    disagreement-specific code path.  For N = 2 this is a single flipped
    label.  Returns (X_rep, labels, weights).
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if num_classes < 2:
        raise ValueError("need at least 2 classes to disagree")
    if targets.shape != (X.shape[0],):
        raise ValueError("targets must align with rows")
    if targets.size and not 0 <= targets.min() <= targets.max() < num_classes:
        raise ValueError(f"targets outside [0, {num_classes})")
    labels = np.nonzero(np.arange(num_classes) != targets[:, None])[1]
    weights = np.full(labels.size, weight / (num_classes - 1))
    return np.repeat(X, num_classes - 1, axis=0), labels, weights
