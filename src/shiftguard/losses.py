"""Classification losses for constrained disagreement training.

The disagreement cross-entropy (DCE) is the cross-entropy of a prediction
against the uniform distribution over every class except a target class:
minimizing it pushes probability mass away from the target while keeping
the prediction high-entropy.  For two classes it reduces exactly to
cross-entropy against the flipped label.  A replication scheme converts
the same objective into plain weighted labels for learners that cannot
consume gradients.

Training needs only d loss / d logits.  ``logit_grads`` computes it per
row from one row-wise softmax over the whole batch, and
``cdc_batch_grad`` normalizes it by batch weight; the learners call
these and never compute a loss value.  The loss-returning batch
functions take their gradients from the same two functions, so a test of
them checks the code that training runs.
"""

from __future__ import annotations

import numpy as np

from .numerics import log_softmax_rows, softmax_rows

__all__ = [
    "logit_grads",
    "cdc_batch_grad",
    "cross_entropy_batch",
    "disagreement_cross_entropy_batch",
    "lambda_weight",
    "cdc_batch_loss",
    "replicate_for_disagreement",
]


def logit_grads(logits: np.ndarray, labels: np.ndarray, disagree=None,
                lam: float = 1.0) -> np.ndarray:
    """Per-row d loss / d logits over an (B, N) logit matrix, unweighted.

    Agree rows get the cross-entropy gradient softmax(l) - onehot(label).
    Disagree rows get lam times the DCE gradient with the label as the
    target: softmax(l)_j - (1/(N-1)) * [j != label].  ``disagree`` is a
    boolean row mask; None means every row agrees.  Softmax is row-wise,
    so each row's bits do not depend on the rest of the batch.  Labels
    must lie in [0, N); they are not checked here.
    """
    grads = softmax_rows(logits)
    rows = np.arange(grads.shape[0])
    if disagree is None:
        grads[rows, labels] -= 1.0
        return grads
    n = grads.shape[1]
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    off = 1.0 / (n - 1)
    # agree rows: p - 0.0 (exact), then p - 1.0 at the label; disagree
    # rows: (p - off), then + off at the target, then * lam
    grads -= np.where(disagree, off, 0.0)[:, None]
    grads[rows, labels] += np.where(disagree, off, -1.0)
    grads *= np.where(disagree, lam, 1.0)[:, None]
    return grads


def cdc_batch_grad(logits: np.ndarray, labels: np.ndarray, disagree,
                   lam: float, weights=None) -> np.ndarray:
    """d cdc_batch_loss / d logits, without the loss value.

    Each row of ``logit_grads`` is scaled by weight / total weight;
    ``weights`` None means unit weights, whose scale is 1/B.  Weights
    must be positive; they are not checked here.
    """
    grads = logit_grads(logits, labels, disagree, lam)
    if weights is None:
        grads *= 1.0 / grads.shape[0]
    else:
        grads *= (weights / weights.sum())[:, None]
    return grads


def _ce_losses(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return -logp[np.arange(logp.shape[0]), labels]


def _dce_losses(logp: np.ndarray, targets: np.ndarray) -> np.ndarray:
    rows = np.arange(logp.shape[0])
    return -(logp.sum(axis=1) - logp[rows, targets]) / (logp.shape[1] - 1)


def cross_entropy_batch(logits: np.ndarray,
                        labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cross-entropy over an (B, N) logit matrix.

    Returns per-row losses (B,) and gradients (B, N).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return (_ce_losses(log_softmax_rows(logits), labels),
            logit_grads(logits, labels))


def disagreement_cross_entropy_batch(
        logits: np.ndarray,
        targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized DCE over an (B, N) logit matrix (targets are the classes
    to avoid)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[1] < 2:
        raise ValueError("need at least 2 classes to disagree")
    return (_dce_losses(log_softmax_rows(logits), targets),
            logit_grads(logits, targets, np.ones(logits.shape[0], bool)))


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

    if not disagree.any():
        disagree = None         # plain cross-entropy, for any class count
    logp = log_softmax_rows(logits)
    losses = _ce_losses(logp, labels)
    if disagree is not None:
        losses = np.where(disagree, lam * _dce_losses(logp, labels), losses)
    loss = float((weights * losses).sum() / weights.sum())
    return loss, cdc_batch_grad(logits, labels, disagree, lam, weights)


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
