import math

import numpy as np
import pytest

from oracles import (
    DisagreementTarget,
    central_difference_grad,
    cross_entropy,
    disagreement_cross_entropy,
    reference_cdc_batch_loss,
    reference_cross_entropy_batch,
    reference_disagreement_cross_entropy_batch,
    softmax,
)
from shiftguard.losses import (
    cdc_batch_grad,
    lambda_weight,
    logit_grads,
    replicate_for_disagreement,
)


def eq2_reference(probs: np.ndarray, t: int) -> float:
    """Direct probability-space evaluation: cross entropy against the
    uniform distribution over all classes except t."""
    n = probs.size
    return float(sum(math.log(probs[c]) for c in range(n) if c != t) / (1 - n))


class TestCrossEntropy:
    def test_uniform_binary(self):
        loss, _ = cross_entropy([0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        loss, _ = cross_entropy([50.0, 0.0, 0.0], 0)
        assert 0.0 <= loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            l = rng.normal(size=5) * 3
            y = int(rng.integers(5))
            _, grad = cross_entropy(l, y)
            fd = central_difference_grad(lambda v: cross_entropy(v, y)[0], l)
            np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.0, 0.0], 2)


class TestDisagreementCrossEntropy:
    def test_global_minimum_is_log_n_minus_1(self):
        # mass 1/(N-1) on every non-target class: loss = log(N-1)
        for n in (2, 3, 5, 10):
            l = np.zeros(n)
            t = n // 2
            l[t] = -40.0
            loss, _ = disagreement_cross_entropy(l, DisagreementTarget(t, n))
            assert loss == pytest.approx(math.log(n - 1), abs=1e-12)

    def test_uniform_prediction_gives_log_n(self):
        for n in (2, 3, 5, 10):
            loss, _ = disagreement_cross_entropy(
                np.zeros(n), DisagreementTarget(0, n))
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_matches_probability_space_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            l = rng.normal(size=n) * 2
            t = int(rng.integers(n))
            loss, _ = disagreement_cross_entropy(l, DisagreementTarget(t, n))
            assert loss == pytest.approx(eq2_reference(softmax(l), t), abs=1e-12)

    def test_binary_reduces_to_label_flip(self):
        l = np.array([2.0, -1.0])
        dce, dce_grad = disagreement_cross_entropy(l, DisagreementTarget(0, 2))
        ce, ce_grad = cross_entropy(l, 1)
        assert dce == pytest.approx(ce, abs=1e-15)
        np.testing.assert_allclose(dce_grad, ce_grad, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 10):
            for _ in range(25):
                l = rng.normal(size=n) * 3
                t = int(rng.integers(n))
                tgt = DisagreementTarget(t, n)
                _, grad = disagreement_cross_entropy(l, tgt)
                fd = central_difference_grad(
                    lambda v: disagreement_cross_entropy(v, tgt)[0], l)
                np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_invariant_under_permuting_non_target_logits(self):
        rng = np.random.default_rng(3)
        l = rng.normal(size=6)
        t = 2
        base, _ = disagreement_cross_entropy(l, DisagreementTarget(t, 6))
        others = [i for i in range(6) if i != t]
        for _ in range(10):
            perm = rng.permutation(others)
            lp = l.copy()
            lp[others] = l[perm]
            loss, _ = disagreement_cross_entropy(lp, DisagreementTarget(t, 6))
            assert loss == pytest.approx(base, abs=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            DisagreementTarget(0, 1)


class TestLambdaWeight:
    def test_paper_rule(self):
        assert lambda_weight(9, 1) == pytest.approx(0.1)
        assert lambda_weight(49, 1) == pytest.approx(0.02)

    def test_batch_filling_correction(self):
        lam = lambda_weight(10, 5)
        assert lam == pytest.approx(1.0 / 55.0)
        assert lam * 10 * 5 < 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            lambda_weight(0, 1)
        with pytest.raises(ValueError):
            lambda_weight(5, 0)


class TestCdcBatchLoss:
    """The batch objective's values, on the oracle; its gradient, on the
    code that training runs."""

    def test_all_agree_equals_mean_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(4, size=6)
        loss, _ = reference_cdc_batch_loss(logits, labels, np.ones(6),
                                           np.zeros(6, dtype=bool), lam=0.37)
        expected = np.mean([cross_entropy(l, y)[0]
                            for l, y in zip(logits, labels)])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_all_disagree_unit_lambda_equals_mean_dce(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(3, size=5)
        loss, _ = reference_cdc_batch_loss(logits, targets, np.ones(5),
                                           np.ones(5, dtype=bool), lam=1.0)
        expected = np.mean([
            disagreement_cross_entropy(l, DisagreementTarget(int(t), 3))[0]
            for l, t in zip(logits, targets)])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_mixed_batch_hand_computed(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        weights = np.array([1.0, 2.0, 1.0, 0.5])
        disagree = np.array([False, False, True, True])
        lam = 0.25
        loss, _ = reference_cdc_batch_loss(logits, labels, weights, disagree,
                                           lam)
        terms = [
            weights[0] * cross_entropy(logits[0], 0)[0],
            weights[1] * cross_entropy(logits[1], 2)[0],
            weights[2] * lam * disagreement_cross_entropy(
                logits[2], DisagreementTarget(1, 3))[0],
            weights[3] * lam * disagreement_cross_entropy(
                logits[3], DisagreementTarget(1, 3))[0],
        ]
        assert loss == pytest.approx(sum(terms) / weights.sum(), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        disagree = np.array([False, True, False, True])
        grad = cdc_batch_grad(logits, labels, disagree, 0.25)
        fd = central_difference_grad(
            lambda v: reference_cdc_batch_loss(v.reshape(4, 3), labels,
                                               np.ones(4), disagree, 0.25)[0],
            logits.ravel()).reshape(4, 3)
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError, match="empty batch"):
            reference_cdc_batch_loss(np.empty((0, 3)), [], [], [], 0.5)


class TestReplication:
    def test_binary_is_label_flip(self):
        X_rep, labels, weights = replicate_for_disagreement(
            [[1.0, 2.0]], [1], 2)
        np.testing.assert_array_equal(X_rep, [[1.0, 2.0]])
        assert labels.tolist() == [0]
        assert weights.tolist() == [1.0]

    def test_four_class_replicas(self):
        _, labels, weights = replicate_for_disagreement([[0.0]], [2], 4)
        assert labels.tolist() == [0, 1, 3]
        assert all(w == pytest.approx(1 / 3) for w in weights)

    def test_weighted_ce_sum_equals_dce(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            l = rng.normal(size=5) * 2
            t = int(rng.integers(5))
            dce, dce_grad = disagreement_cross_entropy(
                l, DisagreementTarget(t, 5))
            total = 0.0
            total_grad = np.zeros(5)
            _, labels, weights = replicate_for_disagreement(np.zeros((1, 1)),
                                                            [t], 5)
            for c, w in zip(labels, weights):
                ce, g = cross_entropy(l, c)
                total += w * ce
                total_grad += w * g
            assert total == pytest.approx(dce, abs=1e-12)
            np.testing.assert_allclose(total_grad, dce_grad, atol=1e-12)

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_rows_replicate_contiguously_in_class_order(self, n_classes):
        X = np.arange(8.0).reshape(4, 2)
        targets = np.array([0, n_classes - 1, 1, 0])
        lam, n_p, scale = 1.0 / 21.0, 630, 0.7
        X_rep, labels, weights = replicate_for_disagreement(
            X, targets, n_classes, lam * n_p * scale)
        np.testing.assert_array_equal(X_rep, np.repeat(X, n_classes - 1, 0))
        expected = [c for t in targets for c in range(n_classes) if c != t]
        assert labels.tolist() == expected
        assert labels.dtype == np.int64
        # bit-identical to lam * n_p * scale / (C - 1), divided last
        assert weights.tolist() == (
            [lam * n_p * scale / (n_classes - 1)] * len(expected))

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError, match="outside"):
            replicate_for_disagreement(np.zeros((2, 1)), [0, 3], 3)
        with pytest.raises(ValueError, match="align"):
            replicate_for_disagreement(np.zeros((2, 1)), [0], 3)
        with pytest.raises(ValueError, match="2 classes"):
            replicate_for_disagreement(np.zeros((1, 1)), [0], 1)


def _seeded_batches(count=324):
    """Batches over C in {2, 3, 5}, B in 1..130, random agree/disagree
    splits (all-agree and all-disagree included), three lambdas, logits
    from near-tied to far apart, and non-uniform positive weights."""
    rng = np.random.default_rng(20)
    for i in range(count):
        c = (2, 3, 5)[i % 3]
        lam = (1e-3, 0.1, 1.0)[(i // 3) % 3]
        b = int(rng.integers(1, 131))
        scale = float(10.0 ** rng.uniform(-2, 1.5))
        logits = rng.normal(size=(b, c)) * scale
        labels = rng.integers(c, size=b)
        split = i % 4
        if split == 0:
            disagree = rng.uniform(size=b) < 0.5
        elif split == 1:
            disagree = np.arange(b) >= int(rng.integers(0, b + 1))
        else:
            disagree = np.full(b, split == 3)
        weights = rng.uniform(0.1, 3.0, size=b)
        yield logits, labels, disagree, lam, weights


class TestGradientBytes:
    """The gradient the learners train on, byte for byte against the batch
    code it replaced, which took each side's gradient on its own masked
    rows next to a loss value."""

    def test_cdc_batch_grad_unit_weights(self):
        for logits, labels, disagree, lam, _ in _seeded_batches():
            _, expected = reference_cdc_batch_loss(
                logits, labels, np.ones(len(labels)), disagree, lam)
            got = cdc_batch_grad(logits, labels, disagree, lam)
            assert got.tobytes() == expected.tobytes()

    def test_logit_grads_over_batch_size(self):
        # per-row gradients over the batch size, bit for bit
        for logits, labels, _, _, _ in _seeded_batches():
            _, grads = reference_cross_entropy_batch(logits, labels)
            got = logit_grads(logits, labels) / len(labels)
            assert got.tobytes() == (grads / len(labels)).tobytes()

    def test_batch_losses_and_gradients(self):
        # per-row cross-entropy and DCE gradients, unscaled, against the
        # batch code that took them next to its loss values
        for logits, labels, _, _, _ in _seeded_batches():
            _, ce_grads = reference_cross_entropy_batch(logits, labels)
            _, dce_grads = reference_disagreement_cross_entropy_batch(
                logits, labels)
            all_disagree = np.ones(len(labels), dtype=bool)
            assert logit_grads(logits, labels).tobytes() == ce_grads.tobytes()
            assert (logit_grads(logits, labels, all_disagree).tobytes()
                    == dce_grads.tobytes())
