import math

import numpy as np
import pytest

from conftest import separable_blob, small_gbt_config, small_mlp_config
from oracles import (
    ReferenceAdam,
    add_node,
    central_difference_grad,
    reference_build_tree,
    reference_cross_entropy_batch,
    reference_margins,
    reference_tree_predict,
)
from shiftguard.learners import (
    GbtConfig,
    LearnerConfig,
    MlpConfig,
    auc_binary,
    batches_per_epoch,
    doc_to_model,
    fit,
    fit_disagreeing,
    load_model,
    model_fingerprint,
    model_to_doc,
    predict_proba,
    save_model,
)
from shiftguard.learners import gbt
from shiftguard.learners.gbt import (
    GbtModel,
    _build_trees,
    _column_ranks,
    _set_walk,
    _Tree,
    _walk_trees,
    gbt_from_doc,
)
from shiftguard.learners.mlp import (
    MlpModel,
    _Adam,
    _backward,
    _forward_train,
    _stack_params,
)
from shiftguard.losses import lambda_weight, logit_grads
from shiftguard.numerics import rng_stream

ALL_CONFIGS = [small_mlp_config(), small_gbt_config()]


def split_blob(X, y, n_val=50):
    return X[:-n_val], y[:-n_val], X[-n_val:], y[-n_val:]


@pytest.fixture(scope="module")
def blob():
    return separable_blob()


@pytest.fixture(scope="module", params=["mlp", "gbt"])
def fitted(request, blob):
    X, y = blob
    config = small_mlp_config() if request.param == "mlp" else small_gbt_config()
    Xt, yt, Xv, yv = split_blob(X, y)
    model = fit(config, Xt, yt, Xv, yv, rng_stream(0, 0))
    return config, model, (Xt, yt, Xv, yv)


class TestFit:
    def test_separable_blob_validation_accuracy(self, fitted):
        _, model, (_, _, Xv, yv) = fitted
        acc = np.mean(model.predict_labels(Xv) == yv)
        assert acc >= 0.99
        assert model.val_score is not None and model.val_score >= 0.99

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_constant_label_dataset(self, config):
        rng = rng_stream(3, 0)
        X = rng.normal((60, 3))
        y = np.full(60, 2, dtype=np.int64)
        model = fit(config, X, y, X[:10], y[:10], rng_stream(3, 1))
        probe = rng.normal((40, 3))
        assert np.all(model.predict_labels(probe) == 2)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_deterministic_given_seed(self, config, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        probe = rng_stream(4, 0).normal((30, 2)) * 3
        a = fit(config, Xt, yt, Xv, yv, rng_stream(7, 5))
        b = fit(config, Xt, yt, Xv, yv, rng_stream(7, 5))
        np.testing.assert_array_equal(a.predict_proba_matrix(probe),
                                      b.predict_proba_matrix(probe))

    def test_empty_train_errors(self):
        with pytest.raises(ValueError):
            fit(small_gbt_config(), np.empty((0, 2)), np.empty(0, np.int64),
                np.zeros((1, 2)), np.zeros(1, np.int64), rng_stream(0, 0))

    def test_label_out_of_range_errors(self, blob):
        # the classes are 0..y.max(), so only a negative label is outside
        X, y = blob
        y = y.copy()
        y[3] = -1
        with pytest.raises(ValueError, match="non-negative class indices"):
            fit(small_gbt_config(), X, y, X, y, rng_stream(0, 0))

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    @pytest.mark.parametrize("where", ["X", "X_val"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_features_refused(self, config, blob, where, bad):
        X, y = blob
        Xt, yt, Xv, yv = (a.copy() for a in split_blob(X, y))
        (Xt if where == "X" else Xv)[4, 1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            fit(config, Xt, yt, Xv, yv, rng_stream(0, 0))


class TestPredictProba:
    def test_valid_probability_rows(self, fitted):
        _, model, _ = fitted
        probe = rng_stream(5, 0).normal((1000, 2)) * 4
        P = model.predict_proba_matrix(probe)
        assert np.all(P >= 0) and np.all(P <= 1)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_single_vector_interface(self, fitted):
        _, model, _ = fitted
        p = predict_proba(model, np.zeros(2))
        assert p.shape == (model.num_classes,)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_errors(self, fitted):
        _, model, _ = fitted
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(5))

    def test_zero_weight_mlp_is_uniform(self):
        model = MlpModel(
            weights=[np.zeros((2, 4)), np.zeros((4, 3))],
            biases=[np.zeros(4), np.zeros(3)],
            mean=np.zeros(2), std=np.ones(2),
            num_classes=3, feature_dim=2, training_seed=(0, 0))
        np.testing.assert_allclose(
            model.predict_proba(np.array([1.0, -2.0])), [1 / 3] * 3)

    def test_zero_round_gbt_predicts_prior(self):
        from shiftguard.learners.gbt import _log_prior
        y = np.array([0] * 30 + [1] * 10)
        prior = np.array([0.75, 0.25])  # class frequencies of the set
        model = GbtModel(_log_prior(y, 2), [], 2, 2, (0, 0))
        probe = rng_stream(6, 0).normal((20, 2))
        np.testing.assert_allclose(
            model.predict_proba_matrix(probe),
            np.tile(prior, (20, 1)), atol=1e-12)

    def test_mlp_auc_validation_metric(self, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_mlp_config()
        config = LearnerConfig(kind="mlp", mlp=config.mlp, val_metric="auc")
        model = fit(config, Xt, yt, Xv, yv, rng_stream(30, 0))
        assert model.val_score >= 0.99  # recorded score is now the AUC

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_auc_rejected_for_three_classes_before_training(
            self, config, monkeypatch):
        import shiftguard.learners.gbt as gbt
        import shiftguard.learners.mlp as mlp

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the metric")

        monkeypatch.setattr(mlp, "fit_mlp", no_training)
        monkeypatch.setattr(gbt, "fit_gbt", no_training)
        config = LearnerConfig(kind=config.kind, mlp=config.mlp,
                               gbt=config.gbt, val_metric="auc")
        X = rng_stream(31, 0).normal((30, 2))
        y = np.arange(30) % 3
        with pytest.raises(ValueError, match="auc metric requires binary"):
            fit(config, X, y, X, y, rng_stream(31, 1))


class TestMlpInternals:
    def test_full_network_gradient_matches_finite_differences(self):
        rng = rng_stream(8, 0)
        X = rng.normal((6, 3))
        y = np.array([0, 1, 2, 0, 1, 2])
        weights = [rng.normal((3, 5)) * 0.5, rng.normal((5, 3)) * 0.5]
        biases = [rng.normal(5) * 0.1, rng.normal(3) * 0.1]

        # one run: the leading run axis has length 1
        params, ws, bs = _stack_params([(weights, biases)])

        def loss_at(flat):
            params[0] = flat
            logits, _, _ = _forward_train(X[None], ws, bs, 0.0,
                                          [rng_stream(0, 0)])
            losses, _ = reference_cross_entropy_batch(logits[0], y)
            return float(losses.mean())

        logits, acts, masks = _forward_train(X[None], ws, bs, 0.0,
                                             [rng_stream(0, 0)])
        _, grads = reference_cross_entropy_batch(logits[0], y)
        analytic = _backward(grads[None] / X.shape[0], acts, masks, ws,
                             0.0)[0]
        fd = central_difference_grad(loss_at, params[0].copy())
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)
        assert err.max() < 1e-4

    def test_flat_adam_matches_per_array_adam_bytes(self):
        """20 steps with l2 > 0, the last 10 after a warm restart through
        clone, against Adam run one weight or bias array at a time."""
        rng = rng_stream(8, 1)
        dims = [3, 6, 5, 3]
        weights = [rng.normal((a, b)) for a, b in zip(dims[:-1], dims[1:])]
        biases = [rng.normal(b) * 0.1 for b in dims[1:]]
        model = MlpModel(weights, biases, np.zeros(3), np.ones(3), 3, 3,
                         (0, 0)).clone()
        model._opt_state = _Adam(model._params, 0.05)
        ref_w = [W.copy() for W in weights]
        ref_b = [b.copy() for b in biases]
        reference = ReferenceAdam(ref_w, ref_b, 0.05)
        for step in range(20):
            if step == 10:
                before, kept = model, model._params.copy()
                model = model.clone()
            X = rng.normal((7, 3))
            y = rng.integers(3, 7)
            ws = [W[None] for W in model.weights]
            logits, acts, masks = _forward_train(
                X[None], ws, [b[None] for b in model.biases], 0.2, [rng])
            grad = _backward(logit_grads(logits[0], y)[None] / 7, acts,
                             masks, ws, 1e-2)[0]
            model._opt_state.step(model._params, grad)
            sizes = [a.size for pair in zip(ref_w, ref_b) for a in pair]
            pieces = np.split(grad, np.cumsum(sizes)[:-1])
            reference.step(ref_w, ref_b,
                           [g.reshape(W.shape) for g, W
                            in zip(pieces[0::2], ref_w)],
                           [g.reshape(b.shape) for g, b
                            in zip(pieces[1::2], ref_b)])
            for got, want in zip(model.weights + model.biases,
                                 ref_w + ref_b):
                assert got.tobytes() == want.tobytes()
        assert model._opt_state.t == reference.t == 20
        # the restart copied the parameters and moments: stepping the
        # clone left the model it came from at step 10
        assert before._opt_state.t == 10
        assert before._params.tobytes() == kept.tobytes()
        assert not np.shares_memory(before._opt_state.m, model._opt_state.m)


def boost(model, X, y, w, cfg, rng, n_rounds):
    """Run ``n_rounds`` of ``_boost_round`` on ``model`` alone, fit on all
    of X from the model's margins on it."""
    run = gbt._Run(model, X, _column_ranks(X), y, w, model.margins(X), rng)
    for _ in range(n_rounds):
        gbt._boost_round([run], cfg)


class TestWeightedFitting:
    """Replica weights reach the trees through ``_boost_round``, the
    boosting round both ``fit`` and disagreement training run."""

    @staticmethod
    def boost(X, y, w, config, seed, prior=(0.0, 0.0)):
        model = GbtModel(np.array(prior), [], 2, X.shape[1], (seed, 0))
        boost(model, X, y, w, config.gbt, rng_stream(seed, 0),
              config.gbt.num_rounds)
        return model

    def test_gbt_weight_k_equals_k_duplicates(self):
        rng = rng_stream(9, 0)
        X = rng.normal((40, 3))
        y = (X[:, 0] + 0.3 * rng.normal(40) > 0).astype(np.int64)
        config = small_gbt_config(subsample=1.0, colsample=1.0, num_rounds=5)
        X_dup = np.vstack([X, X[:5]])
        y_dup = np.concatenate([y, y[:5]])
        w = np.ones(40)
        w[:5] = 2.0
        a = self.boost(X_dup, y_dup, np.ones(45), config, 10)
        b = self.boost(X, y, w, config, 10)
        probe = rng.normal((25, 3))
        np.testing.assert_allclose(a.predict_proba_matrix(probe),
                                   b.predict_proba_matrix(probe), atol=1e-8)

    def test_gbt_unit_weights_match_unweighted(self):
        # fit is the log class prior plus num_rounds unit-weight rounds
        rng = rng_stream(11, 0)
        X = rng.normal((50, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        config = small_gbt_config()
        a = fit(config, X, y, X[:10], y[:10], rng_stream(12, 0))
        b = self.boost(X, y, np.ones(50), config, 12,
                       prior=gbt._log_prior(y, 2))
        probe = rng.normal((25, 2))
        np.testing.assert_array_equal(a.predict_proba_matrix(probe),
                                      b.predict_proba_matrix(probe))


def random_tree_case(seed):
    """One split-search input: Gaussian or integer-valued (heavily tied)
    features, gradients and hessians on a scale from 1e-3 to 1e3, a
    permuted row subsample and a sorted feature subset."""
    rng = rng_stream(seed, 40)
    n = 10 + rng.integers(200)
    d = 1 + rng.integers(5)
    X = rng.normal((n, d))
    tied = rng.uniform(d) < 0.5
    X[:, tied] = np.round(1.5 * X[:, tied])
    scale = 10.0 ** (6.0 * rng.uniform() - 3.0)
    g = scale * rng.normal(n)
    h = scale * (0.5 * rng.uniform(n) + 1e-3)
    rows = rng.sample_without_replacement(n, n // 2 + rng.integers(n // 2))
    features = np.sort(rng.sample_without_replacement(d, 1 + rng.integers(d)))
    cfg = GbtConfig(max_depth=1 + rng.integers(7),
                    min_child_weight=(0.0, 1.0, 5.0)[rng.integers(3)])
    return X, g, h, rows, features, cfg


TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def build_runs(cases, cfg) -> list:
    """The trees of several runs' rounds grown in one ``_build_trees``
    call: each case is one run's (X, grad, hess, rows, feats), its rows
    stacked after the earlier runs', ranked on its own, and the gradients
    laid out as (classes, stacked rows)."""
    offsets = np.cumsum([0] + [case[0].shape[0] for case in cases])
    total, n_classes = offsets[-1], cases[0][1].shape[1]
    flat = [np.tile(rows + start, n_classes)
            for (_, _, _, rows, _), start in zip(cases, offsets)]
    return _build_trees(
        np.concatenate([case[0] for case in cases]),
        np.concatenate([_column_ranks(case[0]) for case in cases], axis=1),
        max(case[0].shape[0] for case in cases),
        np.concatenate([case[1] for case in cases]).T.ravel(),
        np.concatenate([case[2] for case in cases]).T.ravel(),
        np.tile(np.arange(0, n_classes * total, total), len(cases)),
        np.concatenate(flat),
        [case[3].size for case in cases for _ in range(n_classes)],
        np.concatenate([case[4] for case in cases]), cfg)


def build_round(X, grad, hess, rows, feats, cfg) -> list:
    """The trees of one run's round: tree c on ``rows``, from column c of
    the (n, classes) ``grad`` and ``hess``, on the features ``feats[c]``."""
    return build_runs([(X, grad, hess, rows, feats)], cfg)


def build_tree(X, g, h, rows, features, cfg) -> _Tree:
    """The lockstep builder growing a single class's tree."""
    return build_round(X, g[:, None], h[:, None], rows, features[None],
                       cfg)[0]


def assert_same_tree(tree, ref, *context):
    """Node arrays equal byte for byte, so -0.0 and 0.0 thresholds or
    values differ."""
    for name in TREE_FIELDS:
        assert (np.asarray(getattr(tree, name)).tobytes()
                == np.asarray(getattr(ref, name)).tobytes()), (*context, name)


def lockstep_case(seed, n_classes, X=None):
    """A random_tree_case (or its rows and config over the given X) with
    one gradient and hessian column per class and, per class, its own
    sorted feature subset of one shared size."""
    case_X, _, _, rows, _, cfg = random_tree_case(seed)
    X = case_X if X is None else X
    rng = rng_stream(seed, 41)
    n, d = X.shape
    rows = rows[rows < n]
    scale = 10.0 ** (6.0 * rng.uniform() - 3.0)
    grad = scale * rng.normal((n, n_classes))
    hess = scale * (0.5 * rng.uniform((n, n_classes)) + 1e-3)
    n_col = 1 + rng.integers(d)
    feats = np.array([np.sort(rng.sample_without_replacement(d, n_col))
                      for _ in range(n_classes)])
    return X, grad, hess, rows, feats, cfg


def assert_lockstep_matches_reference(X, grad, hess, rows, feats, cfg,
                                      *context):
    trees = build_round(X, grad, hess, rows, feats, cfg)
    assert len(trees) == grad.shape[1]
    for c, tree in enumerate(trees):
        ref = reference_build_tree(X, grad[:, c], hess[:, c], rows,
                                   feats[c], cfg)
        assert_same_tree(tree, ref, *context, c)
    return trees


class TestTreeBuilder:
    def test_matches_node_at_a_time_reference(self):
        splits = 0
        for seed in range(400):
            case = random_tree_case(seed)
            ref = reference_build_tree(*case)
            assert_same_tree(build_tree(*case), ref, seed)
            splits += len(ref.feature) // 2
        assert splits > 2000   # the cases reach deep, split-rich trees

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_lockstep_classes_match_reference(self, n_classes):
        # every class grows on the same rows from its own gradient column
        # and feature subset, as if it were grown alone
        subsets_differ = 0
        for seed in range(40):
            case = lockstep_case(seed, n_classes)
            assert_lockstep_matches_reference(*case, seed)
            subsets_differ += len({tuple(f) for f in case[4]}) > 1
        assert subsets_differ >= 10

    def test_lockstep_signed_zero_ties(self):
        # -0.0 and 0.0 are one value: one rank, one run, no cut between
        rng = rng_stream(5, 42)
        X = rng.normal((150, 3))
        X[:, 0] = np.where(rng.uniform(150) < 0.5, -0.0, 0.0)
        X[::3, 0] = 1.0
        X[:, 1] = np.where(rng.uniform(150) < 0.5, -0.0, 0.0)
        ranks = _column_ranks(X)
        assert set(ranks[1].tolist()) == {0}
        assert set(ranks[0].tolist()) == {0, 1}
        for n_classes in (2, 3):
            case = lockstep_case(7, n_classes, X=X)
            trees = assert_lockstep_matches_reference(*case, n_classes)
            assert all(1 not in t.feature for t in trees)

    def test_lockstep_heavily_repeated_values(self):
        rng = rng_stream(6, 42)
        X = rng.integers(3, (400, 4)).astype(np.float64)
        for n_classes in (2, 3, 5):
            case = lockstep_case(11, n_classes, X=X)
            trees = assert_lockstep_matches_reference(*case, n_classes)
            assert any(len(t.feature) > 1 for t in trees)

    def test_nan_gain_skips_only_its_feature(self):
        # with reg_lambda = 0, row 1's tiny statistics vanish from the sums
        # on the right of feature 0's one cut: its gain is 0/0, and the
        # search must move on to feature 1, not give up on the node
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        g = np.array([3.0, 1e-30, -1.0, -1.0])
        h = np.array([1.0, 1e-30, 1.0, 1.0])
        case = (X, g, h, np.arange(4), np.arange(2),
                GbtConfig(max_depth=1, reg_lambda=0.0, min_child_weight=0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            tree, ref = build_tree(*case), reference_build_tree(*case)
        assert ref.feature[0] == 1
        assert_same_tree(tree, ref)


class TestSplitSearchKeys:
    @pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "tied"])
    def test_wide_keys_match_reference(self, tied, monkeypatch):
        # 2,000 rows, 3 features, depth 6: the sort keys group * n + rank
        # fit 16 bits at the root and need 32 by depth 5.  Tie-free
        # columns give one row per run; rounded columns repeat values
        rng = rng_stream(12, 42)
        n, d = 2000, 3
        X = rng.normal((n, d))
        if tied:
            X[:, :2] = np.round(4.0 * X[:, :2])
        assert all(np.unique(col).size < n for col in X[:, :2].T) == tied
        g = rng.normal(n)
        h = 0.5 * rng.uniform(n) + 1e-3
        rows = rng.sample_without_replacement(n, 1800)
        cfg = GbtConfig(max_depth=6, min_child_weight=1.0)
        key_ends = []
        search = gbt._best_splits

        def recorded(X, ranks, n_rank, flat, sizes, node_feats, *rest):
            key_ends.append(node_feats.size * n_rank)
            return search(X, ranks, n_rank, flat, sizes, node_feats, *rest)

        monkeypatch.setattr(gbt, "_best_splits", recorded)
        case = (X, g, h, rows, np.arange(d), cfg)
        assert_same_tree(build_tree(*case), reference_build_tree(*case))
        assert min(key_ends) <= 2 ** 16 < max(key_ends)


class TestMultiRunTrees:
    """Runs of unequal row counts, each with its own ranks, rows, gradient
    columns and feature subsets, grow their trees in one call; each tree
    must have the bytes of one call per run."""

    @staticmethod
    def run_case(seed, n, d, n_classes, n_col):
        rng = rng_stream(seed, 44)
        X = rng.normal((n, d))
        X[:, 0] = np.round(2.0 * X[:, 0])       # heavily tied values
        grad = rng.normal((n, n_classes))
        hess = 0.5 * rng.uniform((n, n_classes)) + 1e-3
        rows = rng.sample_without_replacement(n, n // 2 + rng.integers(n // 2))
        feats = np.array([np.sort(rng.sample_without_replacement(d, n_col))
                          for _ in range(n_classes)])
        return X, grad, hess, rows, feats

    def assert_runs_match_one_call_each(self, cases, cfg):
        trees = build_runs(cases, cfg)
        n_classes = cases[0][1].shape[1]
        assert len(trees) == len(cases) * n_classes
        for r, case in enumerate(cases):
            alone = build_round(*case, cfg)
            for c, tree in enumerate(alone):
                assert_same_tree(trees[r * n_classes + c], tree, r, c)
                assert trees[r * n_classes + c].walk[4] == tree.walk[4]

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_runs_match_one_call_each(self, n_classes):
        for seed in range(10):
            rng = rng_stream(seed, 45)
            cfg = GbtConfig(max_depth=1 + rng.integers(6),
                            min_child_weight=(0.0, 1.0)[rng.integers(2)])
            cases = [self.run_case(100 * seed + r, 20 + rng.integers(150), 3,
                                   n_classes, 2)
                     for r in range(1 + rng.integers(5))]
            self.assert_runs_match_one_call_each(cases, cfg)

    def test_wide_keys(self, monkeypatch):
        # four runs of 1,500 to 1,800 rows at depth 6: the keys group *
        # n_rank + rank pass 2**16 once a depth holds a dozen nodes
        key_ends, search = [], gbt._best_splits

        def recorded(X, ranks, n_rank, flat, sizes, node_feats, *rest):
            key_ends.append(node_feats.size * n_rank)
            return search(X, ranks, n_rank, flat, sizes, node_feats, *rest)

        monkeypatch.setattr(gbt, "_best_splits", recorded)
        cases = [self.run_case(7 + r, 1500 + 100 * r, 3, 1, 3)
                 for r in range(4)]
        self.assert_runs_match_one_call_each(cases, GbtConfig(max_depth=6))
        assert min(key_ends) <= 2 ** 16 < max(key_ends)


class TestTreePredict:
    """The level-wise walk against the node-at-a-time stack walk."""

    @staticmethod
    def assert_walks_agree(tree, X):
        assert (_walk_trees([tree], X)[0].tobytes()
                == reference_tree_predict(tree, X).tobytes())

    def test_built_trees(self):
        for seed in range(60):
            X, g, h, rows, features, cfg = random_tree_case(seed)
            tree = build_tree(X, g, h, rows, features, cfg)
            probe = rng_stream(seed, 43).normal((50, X.shape[1])) * 2.0
            self.assert_walks_agree(tree, X)
            self.assert_walks_agree(tree, probe)

    def test_single_leaf_tree(self):
        tree = _Tree()
        tree.value[add_node(tree)] = -0.25
        _set_walk(tree, 0)
        X = rng_stream(7, 43).normal((9, 2))
        self.assert_walks_agree(tree, X)
        assert _walk_trees([tree], np.empty((0, 2))).shape == (1, 0)

    def test_loaded_trees(self, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        model = fit(small_gbt_config(), Xt, yt, Xv, yv, rng_stream(8, 0))
        loaded = gbt_from_doc(model_to_doc(model))
        probe = rng_stream(8, 43).normal((80, 2)) * 5.0
        for tree in (t for rnd in loaded.rounds for t in rnd):
            self.assert_walks_agree(tree, probe)
        # a loaded tree's walk arrays, mirrors' included, are those it
        # was built with
        for built, tree in zip(
                (t for rnd in model.rounds for t in rnd),
                (t for rnd in loaded.rounds for t in rnd)):
            assert built.walk[4] == tree.walk[4]
            for a, b in zip(built.walk[:4], tree.walk[:4]):
                assert a.tobytes() == b.tobytes()

    def test_trees_walked_together(self, monkeypatch):
        # trees of unequal heights, a single leaf among them, walked in
        # one batch and in chunks of every size down to one tree
        rng = rng_stream(9, 0)
        X = rng.normal((150, 2))
        y = (X[:, 0] + X[:, 1] ** 2 + rng.normal(150) > 1.0).astype(np.int64)
        model = fit(small_gbt_config(), X[:120], y[:120], X[120:], y[120:],
                    rng.split(1))
        leaf = _Tree()
        leaf.value[add_node(leaf)] = 0.5
        _set_walk(leaf, 0)
        trees = [t for rnd in model.rounds for t in rnd] + [leaf]
        assert len({len(t.feature) for t in trees}) > 2
        probe = rng_stream(9, 43).normal((30, 2)) * 5.0
        for tree, values in zip(trees, _walk_trees(trees, probe)):
            assert (values.tobytes()
                    == reference_tree_predict(tree, probe).tobytes())
        for cells in (1, 45, 1000):
            monkeypatch.setattr(gbt, "_WALK_CELLS", cells)
            assert (model.margins(probe).tobytes()
                    == reference_margins(model, probe).tobytes())

    def test_nonfinite_rows(self):
        X, g, h, rows, features, cfg = random_tree_case(3)
        tree = build_tree(X, g, h, rows, features, cfg)
        probe = np.repeat(X[:12], 4, axis=0)
        probe[0::4, features[0]] = np.nan
        probe[1::4, features[0]] = np.inf
        probe[2::4, features[0]] = -np.inf
        probe[3::4] = np.nan
        self.assert_walks_agree(tree, probe)

    def test_values_equal_to_thresholds(self):
        # every row of a copy of X holds node i's threshold in node i's
        # feature, so every row meets it at the root and some deeper
        for seed in range(20):
            X, g, h, rows, features, cfg = random_tree_case(seed)
            tree = build_tree(X, g, h, rows, features, cfg)
            for f, thr in zip(tree.feature, tree.threshold):
                if f >= 0:
                    probe = X.copy()
                    probe[:, f] = thr
                    self.assert_walks_agree(tree, probe)


class TestFitDisagreeing:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_empty_q_refused(self, config, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(13, 0))
        with pytest.raises(ValueError, match="Q must be nonempty"):
            fit_disagreeing(config, [base], (Xt, yt), (Xv, yv),
                            [(np.empty((0, 2)), np.empty(0, np.int64))],
                            lams=[0.1], rngs=[rng_stream(13, 2)])

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_empty_p_train_refused(self, config, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(13, 0))
        with pytest.raises(ValueError, match="P_train must be nonempty"):
            fit_disagreeing(config, [base],
                            (np.empty((0, 2)), np.empty(0, np.int64)),
                            (Xv, yv), [(Xv[:4], base.predict_labels(Xv[:4]))],
                            lams=[0.1], rngs=[rng_stream(13, 2)])

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_zero_max_steps_refused(self, config, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(13, 0))
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            fit_disagreeing(config, [base], (Xt, yt), (Xv, yv),
                            [(Xv[:4], base.predict_labels(Xv[:4]))],
                            lams=[0.1], rngs=[rng_stream(13, 2)], max_steps=0)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    def test_far_shifted_q_learns_disagreement(self, config, blob):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(1, 0))
        base_val_acc = np.mean(base.predict_labels(Xv) == yv)
        # 10 points far outside the support (10 sigma along feature 1)
        rng = rng_stream(1, 1)
        Xq = rng.normal((10, 2))
        Xq[:, 1] += 10.0
        pseudo = base.predict_labels(Xq)
        lam = lambda_weight(10, batches_per_epoch(config, len(yt), 10))
        rng = rng_stream(1, 2)
        cdc = base
        for _ in range(10):
            cdc = fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv),
                                  [(Xq, pseudo)], lams=[lam], rngs=[rng])[0]
        disagreement = np.mean(cdc.predict_labels(Xq) != pseudo)
        val_acc = np.mean(cdc.predict_labels(Xv) == yv)
        assert disagreement >= 0.9
        assert val_acc >= base_val_acc - 0.02

    def test_binary_gbt_equals_flipped_label_training(self, blob):
        # with N = 2 the replication path is exactly one flipped label per
        # Q row at the full replica weight
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_gbt_config()
        base = fit(config, Xt, yt, Xv, yv, rng_stream(2, 0))
        Xq = rng_stream(2, 1).normal((8, 2)) + 4.0
        pseudo = base.predict_labels(Xq)
        lam = lambda_weight(8, 1)
        rng = rng_stream(2, 2)
        cdc = base
        for _ in range(4):
            cdc = fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv),
                                  [(Xq, pseudo)], lams=[lam], rngs=[rng])[0]

        manual = base.clone_shallow()
        w_q = lam * len(yt) * config.gbt.disagree_scale
        X_all = np.vstack([Xt, Xq])
        y_all = np.concatenate([yt, 1 - pseudo])
        w_all = np.concatenate([np.ones(len(yt)), np.full(8, w_q)])
        boost(manual, X_all, y_all, w_all, config.gbt, rng_stream(2, 2), 4)
        probe = rng_stream(2, 3).normal((40, 2)) * 3
        np.testing.assert_array_equal(cdc.predict_proba_matrix(probe),
                                      manual.predict_proba_matrix(probe))
        # four chained rounds: the carried margins took all of them
        for rows in (Xt, Xv, Xq):
            assert (cdc.margins(rows).tobytes()
                    == reference_margins(cdc, rows).tobytes())

    def test_gbt_ranks_once_per_stacked_rows(self, blob, monkeypatch):
        # a CDC's chained rounds stack equal P + replica rows: the first
        # ranks them and the later ones take its ranks; a new Q re-ranks
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_gbt_config()
        base = fit(config, Xt, yt, Xv, yv, rng_stream(4, 0))
        ranked = []
        monkeypatch.setattr(gbt, "_column_ranks",
                            lambda X: ranked.append(X) or _column_ranks(X))
        Xq = Xv[:6]
        cdc = base
        for _ in range(3):
            cdc = fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv),
                                  [(Xq, base.predict_labels(Xq))], lams=[0.1],
                                  rngs=[rng_stream(4, 1)])[0]
        assert len(ranked) == 1
        assert np.array_equal(cdc._ranks[0], np.vstack([Xt, Xq]))
        assert np.array_equal(cdc._ranks[1], _column_ranks(cdc._ranks[0]))
        fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv),
                        [(Xq[:3], base.predict_labels(Xq[:3]))], lams=[0.1],
                        rngs=[rng_stream(4, 1)])
        assert len(ranked) == 2

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_gbt_round_walked_once(self, blob, n_classes, monkeypatch):
        # a warm-started round walks its new trees over P, the Q replicas
        # and P_val in one batch, and carries margins with the bytes of
        # a sum from scratch
        X, y = blob
        if n_classes == 3:
            y = np.arange(y.size) % 3
            X = X + 2.0 * y[:, None]
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_gbt_config()
        base = fit(config, Xt, yt, Xv, yv, rng_stream(14, 0))
        Xq = Xv[:6] + 1.0
        q = (Xq, base.predict_labels(Xq))
        rng = rng_stream(14, 1)
        cdc = fit_disagreeing(config, [base], (Xt, yt), (Xv, yv), [q],
                              lams=[0.1], rngs=[rng])[0]
        calls, walk = [], gbt._walk_trees
        monkeypatch.setattr(gbt, "_walk_trees",
                            lambda trees, X: calls.append(trees)
                            or walk(trees, X))
        cdc = fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv), [q],
                              lams=[0.1], rngs=[rng])[0]
        grown = cdc.rounds[-1][1:] if n_classes == 2 else cdc.rounds[-1]
        assert calls == [grown]
        monkeypatch.undo()
        for rows in (Xt, Xq, Xv):
            assert (cdc.margins(rows).tobytes()
                    == reference_margins(cdc, rows).tobytes())

    def test_lockstep_runs_refused_unless_aligned(self, blob):
        """MLP runs step together only with one Q, one lambda and one
        stream per base, bases of one class count, Qs of one row count,
        one lambda and bases at one Adam step count."""
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_mlp_config()
        base = fit(config, Xt, yt, Xv, yv, rng_stream(13, 0))
        three = fit(config, Xt, np.arange(yt.size) % 3, Xv,
                    np.arange(yv.size) % 3, rng_stream(13, 1))

        def q(n):
            return Xv[:n], base.predict_labels(Xv[:n])

        def call(bases, qs, n_rngs, lams=None):
            return fit_disagreeing(config, bases, (Xt, yt), (Xv, yv), qs,
                                   lams=lams or [0.1] * len(bases),
                                   rngs=[rng_stream(13, i)
                                         for i in range(n_rngs)])

        with pytest.raises(ValueError, match="one Q and one stream"):
            call([base], [q(4), q(4)], 1)
        with pytest.raises(ValueError, match="one Q and one stream"):
            call([base, base], [q(4), q(4)], 1)
        with pytest.raises(ValueError, match="one Q and one stream"):
            call([base, base], [q(4), q(4)], 2, lams=[0.1])
        with pytest.raises(ValueError, match="must share num_classes"):
            call([base, three], [q(4), q(4)], 2)
        with pytest.raises(ValueError, match=r"must share \|Q\|"):
            call([base, base], [q(4), q(5)], 2)
        with pytest.raises(ValueError, match="must share .* lambda"):
            call([base, base], [q(4), q(4)], 2, lams=[0.1, 0.2])
        (trained,) = call([base], [q(4)], 1)
        with pytest.raises(ValueError, match="share their Adam step count"):
            call([base, trained], [q(4), q(4)], 2)

    def test_lambda_validation(self, blob):
        X, y = blob
        config = small_gbt_config()
        base = fit(config, X, y, X[:20], y[:20], rng_stream(3, 0))
        with pytest.raises(ValueError):
            fit_disagreeing(config, [base], (X, y), (X, y),
                            [(X[:4], base.predict_labels(X[:4]))],
                            lams=[0.0], rngs=[rng_stream(3, 1)])

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    @pytest.mark.parametrize("where", ["P_train", "P_val", "Q"])
    def test_nonfinite_features_refused(self, config, blob, where):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(3, 0))
        parts = {"P_train": Xt.copy(), "P_val": Xv.copy(), "Q": Xv[:4].copy()}
        parts[where][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{where} features hold NaN"):
            fit_disagreeing(config, [base], (parts["P_train"], yt),
                            (parts["P_val"], yv),
                            [(parts["Q"], base.predict_labels(Xv[:4]))],
                            lams=[0.1], rngs=[rng_stream(3, 1)])

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=["mlp", "gbt"])
    @pytest.mark.parametrize("where,label", [
        ("P_train", -1), ("P_train", 2), ("Q pseudo", -1), ("Q pseudo", 2)])
    def test_out_of_range_labels_refused(self, config, blob, where, label):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(3, 0))
        labels = {"P_train": yt.copy(),
                  "Q pseudo": base.predict_labels(Xv[:4])}
        labels[where][1] = label
        with pytest.raises(ValueError,
                           match=rf"{where} labels outside \[0, 2\)"):
            fit_disagreeing(config, [base], (Xt, labels["P_train"]), (Xv, yv),
                            [(Xv[:4], labels["Q pseudo"])],
                            lams=[0.1], rngs=[rng_stream(3, 1)])

def assert_mirrored(model):
    """Every round of a binary model holds class 1's tree and, for class
    0, its mirror: equal node arrays and negated leaf values, byte for
    byte."""
    for zero, one in model.rounds:
        assert zero.mirror_of is one
        for name in ("feature", "threshold", "left", "right"):
            assert (np.asarray(getattr(zero, name)).tobytes()
                    == np.asarray(getattr(one, name)).tobytes()), name
        assert (np.asarray(zero.value).tobytes()
                == (-np.asarray(one.value)).tobytes())


def count_walked_trees(monkeypatch):
    """The trees passed to ``_walk_trees`` from now on, in order."""
    walked, walk = [], gbt._walk_trees

    def counted(trees, X):
        walked.extend(trees)
        return walk(trees, X)

    monkeypatch.setattr(gbt, "_walk_trees", counted)
    return walked


class TestBinaryMirror:
    """A binary round grows class 1's tree alone and stores class 0's as
    its mirror; a round stored as two grown trees is walked as two."""

    @pytest.mark.parametrize("colsample", [1.0, 0.5])
    def test_fit_and_fit_disagreeing_rounds_mirrored(self, blob, colsample):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        config = small_gbt_config(colsample=colsample)
        base = fit(config, Xt, yt, Xv, yv, rng_stream(15, 0))
        assert_mirrored(base)
        Xq = Xv[:6] + 3.0
        cdc, rng = base, rng_stream(15, 1)
        for _ in range(3):
            cdc = fit_disagreeing(config, [cdc], (Xt, yt), (Xv, yv),
                                  [(Xq, base.predict_labels(Xq))], lams=[0.1],
                                  rngs=[rng])[0]
        assert len(cdc.rounds) == config.gbt.num_rounds + 3
        assert_mirrored(cdc)
        for rows in (Xt, Xv, Xq):
            assert (cdc.margins(rows).tobytes()
                    == reference_margins(cdc, rows).tobytes())

    @pytest.mark.parametrize("subsample, colsample",
                             [(0.9, 0.6), (0.7, 0.4), (1.0, 1.0)])
    def test_rounds_draw_both_column_subsets(self, subsample, colsample):
        # class 0's columns are drawn and not used: the stream after a
        # round is where drawing both subsets leaves it, and class 1's
        # tree splits only on the second subset
        rng = rng_stream(16, 0)
        n, d = 80, 5
        X = rng.normal((n, d))
        y = (X[:, 0] + X[:, 3] + 0.5 * rng.normal(n) > 0).astype(np.int64)
        cfg = small_gbt_config(subsample=subsample,
                               colsample=colsample).gbt
        model = GbtModel(np.zeros(2), [], 2, d, (16, 1))
        stream = rng_stream(16, 1)
        boost(model, X, y, np.ones(n), cfg, stream, 6)
        ref = rng_stream(16, 1)
        n_sub, n_col = round(subsample * n), round(colsample * d)
        outside_class_0 = 0
        for _, tree in model.rounds:
            if n_sub < n:
                ref.sample_without_replacement(n, n_sub)
            cols = [set(ref.sample_without_replacement(d, n_col).tolist())
                    if n_col < d else set(range(d)) for _ in range(2)]
            split_on = {f for f in tree.feature if f >= 0}
            assert split_on and split_on <= cols[1]
            outside_class_0 += not split_on <= cols[0]
        assert stream.uniform() == ref.uniform()
        assert outside_class_0 > 0 or colsample == 1.0

    def test_three_class_rounds_not_mirrored(self):
        rng = rng_stream(17, 0)
        y = np.arange(150) % 3
        X = rng.normal((150, 2))
        X[:, 0] += 2.0 * y
        model = fit(small_gbt_config(), X[:120], y[:120], X[120:], y[120:],
                    rng.split(1))
        loaded = doc_to_model(model_to_doc(model))
        for rounds in (model.rounds, loaded.rounds):
            assert all(len(rnd) == 3 for rnd in rounds)
            assert all(t.mirror_of is None for rnd in rounds for t in rnd)

    def test_loaded_binary_model_walks_one_tree_per_round(self, blob,
                                                          monkeypatch):
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        loaded = doc_to_model(model_to_doc(
            fit(small_gbt_config(), Xt, yt, Xv, yv, rng_stream(18, 0))))
        assert_mirrored(loaded)
        walked = count_walked_trees(monkeypatch)
        probe = rng_stream(18, 1).normal((60, 2)) * 4.0
        margins = loaded.margins(probe)
        assert walked == [one for _, one in loaded.rounds]
        # the reference walks class 0's stored tree and adds its values
        assert margins.tobytes() == reference_margins(loaded, probe).tobytes()

    def test_two_tree_binary_document_walks_both(self, blob, monkeypatch):
        # binary rounds grown as two classes, as every binary model was
        # before the mirror: they load unlinked and keep their own bits
        X, y = blob
        n, d = X.shape
        cfg = small_gbt_config().gbt
        model = GbtModel(gbt._log_prior(y, 2), [], 2, d, (19, 0))
        rng, onehot = rng_stream(19, 0), np.eye(2)[y]
        for _ in range(4):
            p = model.predict_proba_matrix(X)
            hess = np.maximum(2.0 * p * (1.0 - p), 1e-16)
            model.rounds.append(build_round(
                X, p - onehot, hess,
                rng.sample_without_replacement(n, n - 20),
                np.array([np.arange(d)] * 2), cfg))
        assert not any(gbt._is_mirror(*rnd) for rnd in model.rounds)
        loaded = doc_to_model(model_to_doc(model))
        assert all(t.mirror_of is None for rnd in loaded.rounds for t in rnd)
        walked = count_walked_trees(monkeypatch)
        probe = rng_stream(19, 1).normal((60, 2)) * 4.0
        margins = loaded.margins(probe)
        assert len(walked) == 2 * len(loaded.rounds)
        assert margins.tobytes() == reference_margins(loaded, probe).tobytes()
        assert margins.tobytes() == reference_margins(model, probe).tobytes()

    def test_near_mirrors_not_linked(self, blob):
        # one leaf a bit off, a -0.0 threshold against 0.0, or a NaN leaf
        # (x - NaN and x + (-NaN) differ in sign): not mirrors
        X, y = blob
        Xt, yt, Xv, yv = split_blob(X, y)
        doc = model_to_doc(fit(small_gbt_config(), Xt, yt, Xv, yv,
                               rng_stream(20, 0)))

        def first_round():
            zero, one = doc_to_model(doc).rounds[0]
            assert zero.mirror_of is one
            return zero, one

        zero, one = first_round()
        zero.value[-1] = float(np.nextafter(zero.value[-1], np.inf))
        assert not gbt._is_mirror(zero, one)
        zero, one = first_round()
        zero.threshold[-1], one.threshold[-1] = -0.0, 0.0
        assert not gbt._is_mirror(zero, one)
        zero, one = first_round()
        one.value[-1], zero.value[-1] = math.nan, -math.nan
        assert (np.asarray(zero.value).tobytes()
                == (-np.asarray(one.value)).tobytes())
        assert not gbt._is_mirror(zero, one)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, fitted, tmp_path):
        _, model, _ = fitted
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        probe = rng_stream(14, 0).normal((50, 2)) * 2
        np.testing.assert_array_equal(model.predict_proba_matrix(probe),
                                      restored.predict_proba_matrix(probe))
        assert restored.val_score == model.val_score
        assert restored.training_seed == model.training_seed

    def test_fingerprint_stable_and_distinguishing(self, fitted):
        config, model, (Xt, yt, Xv, yv) = fitted
        assert model_fingerprint(model) == model_fingerprint(model)
        other = fit(config, Xt, yt, Xv, yv, rng_stream(99, 1))
        assert model_fingerprint(model) != model_fingerprint(other)

    def test_doc_version_check(self, fitted):
        _, model, _ = fitted
        doc = model_to_doc(model)
        doc["header"]["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            doc_to_model(doc)

    def test_truncated_file_refused(self, fitted, tmp_path):
        _, model, _ = fitted
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        for cut in (0, 1, len(text) // 2, len(text) - 1):
            path.write_text(text[:cut])
            with pytest.raises(ValueError) as info:
                load_model(path)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc.pop("header"), "no 'header' object"),
        (lambda doc: doc.pop("body"), "no 'body' object"),
        (lambda doc: doc.update(header="mlp"), "no 'header' object"),
        (lambda doc: doc["header"].pop("kind"), "header has no 'kind'"),
        (lambda doc: doc["header"].pop("num_classes"),
         "header has no 'num_classes'"),
        (lambda doc: doc["header"].update(format_version="1"),
         "format version"),
        (lambda doc: doc["header"].update(kind="svm"),
         "unknown model kind 'svm'"),
        (lambda doc: doc["body"].clear(), "model body has no"),
    ])
    def test_tampered_doc_refused(self, fitted, tamper, message):
        _, model, _ = fitted
        doc = model_to_doc(model)
        tamper(doc)
        with pytest.raises(ValueError, match=message) as info:
            doc_to_model(doc)
        assert "\n" not in str(info.value)

    def test_non_object_doc_refused(self, fitted):
        _, model, _ = fitted
        with pytest.raises(ValueError, match="not a JSON object"):
            doc_to_model([model_to_doc(model)])

    @pytest.mark.parametrize("field, value, message", [
        ("format_version", True, "format version"),
        ("num_classes", "2", "'num_classes' is not an int >= 2"),
        ("num_classes", 1, "'num_classes' is not an int >= 2"),
        ("num_classes", 2.0, "'num_classes' is not an int >= 2"),
        ("feature_dim", 0, "'feature_dim' is not an int >= 1"),
        ("feature_dim", True, "'feature_dim' is not an int >= 1"),
        ("training_seed", 3, "'training_seed' is not two ints"),
        ("training_seed", [0, 0, 0], "'training_seed' is not two ints"),
        ("training_seed", [0, 0.0], "'training_seed' is not two ints"),
        ("val_score", True, "'val_score' is not a finite number or null"),
        ("val_score", "0.9", "'val_score' is not a finite number or null"),
        ("val_score", math.nan, "'val_score' is not a finite number"),
        ("val_score", math.inf, "'val_score' is not a finite number"),
    ])
    def test_bad_header_field_refused(self, fitted, field, value, message):
        _, model, _ = fitted
        doc = model_to_doc(model)
        doc["header"][field] = value
        with pytest.raises(ValueError, match=message) as info:
            doc_to_model(doc)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("score", [None, 1, 10 ** 400])
    def test_null_or_int_val_score_loads(self, fitted, score):
        _, model, _ = fitted
        doc = model_to_doc(model)
        doc["header"]["val_score"] = score
        assert doc_to_model(doc).val_score == score

    @pytest.mark.parametrize("key, value, message", [
        ("dtype", "foo", "dtype 'foo' is not a float or int type"),
        ("dtype", "complex128", "is not a float or int type"),
        ("dtype", ["float64"], "is not a float or int type"),
        ("shape", "2", "is not a list of sizes"),
        ("shape", [-1], "is not a list of sizes"),
        ("shape", [3], r"of shape \[3\] holds 16 bytes of float64"),
        ("data", 5, "is not a base64 string"),
        ("data", "!!!!", "is not base64"),
        ("data", "\u00e9", "is not base64"),
    ])
    def test_bad_body_array_refused(self, fitted, key, value, message):
        _, model, _ = fitted
        doc = model_to_doc(model)
        body = doc["body"]
        array = body["mean"] if model.kind == "mlp" else body["base_log_prior"]
        array[key] = value
        with pytest.raises(ValueError, match=message) as info:
            doc_to_model(doc)
        assert "\n" not in str(info.value)

    def test_array_not_an_object_refused(self, fitted):
        _, model, _ = fitted
        doc = model_to_doc(model)
        key = "mean" if model.kind == "mlp" else "base_log_prior"
        doc["body"][key] = [0.0, 0.0]
        with pytest.raises(ValueError, match="not a {dtype, shape, data}"):
            doc_to_model(doc)

    @pytest.mark.parametrize("fitted", ["mlp"], indirect=True)
    @pytest.mark.parametrize("damage, message", [
        (lambda m: m.weights.__setitem__(0, m.weights[0][:-1]),
         "do not chain from feature_dim"),
        (lambda m: m.biases.__setitem__(1, m.biases[1][:-1]),
         "do not chain from feature_dim"),
        (lambda m: m.biases.pop(), "one bias per weight matrix"),
        (lambda m: setattr(m, "mean", m.mean[:1]), "'mean' and 'std'"),
        (lambda m: (m.weights.__setitem__(-1, m.weights[-1][:, :1]),
                    m.biases.__setitem__(-1, m.biases[-1][:1])),
         "output layer does not match num_classes"),
    ], ids=["first-layer-rows", "bias-width", "missing-bias", "mean-width",
            "output-width"])
    def test_mlp_shapes_refused(self, fitted, damage, message):
        _, model, _ = fitted
        copy = doc_to_model(model_to_doc(model))
        damage(copy)
        with pytest.raises(ValueError, match=message):
            doc_to_model(model_to_doc(copy))

    @pytest.mark.parametrize("fitted", ["gbt"], indirect=True)
    @pytest.mark.parametrize("damage, message", [
        (lambda m: m.rounds[1][0].left.__setitem__(0, 0),
         "do not form a tree over 2 features"),
        (lambda m: m.rounds[1][0].right.__setitem__(0, 99),
         "do not form a tree"),
        (lambda m: m.rounds[1][0].feature.__setitem__(0, 2),
         "do not form a tree"),
        (lambda m: m.rounds[1][0].feature.__setitem__(0, -2),
         "do not form a tree"),
        (lambda m: m.rounds[1][0].value.pop(), "one nonempty length"),
        (lambda m: m.rounds[1].pop(), "one tree per class per round"),
        (lambda m: setattr(m, "base_log_prior", m.base_log_prior[:1]),
         "'base_log_prior' does not match num_classes"),
    ], ids=["self-loop", "child-out-of-range", "feature-out-of-range",
            "feature-below-leaf", "short-values", "missing-class-tree",
            "short-prior"])
    def test_gbt_trees_refused(self, fitted, damage, message):
        _, model, _ = fitted
        copy = doc_to_model(model_to_doc(model))
        assert copy.rounds[1][0].feature[0] >= 0   # the root splits
        damage(copy)
        with pytest.raises(ValueError, match=message):
            doc_to_model(model_to_doc(copy))

    @pytest.mark.parametrize("fitted", ["gbt"], indirect=True)
    def test_tree_field_missing_refused(self, fitted):
        _, model, _ = fitted
        doc = model_to_doc(model)
        del doc["body"]["rounds"][0][1]["threshold"]
        with pytest.raises(ValueError, match="gbt tree has no 'threshold'"):
            doc_to_model(doc)


class TestConfigValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("config, name", [
        (MlpConfig, "learning_rate"), (MlpConfig, "l2"),
        (GbtConfig, "eta"), (GbtConfig, "min_child_weight"),
        (GbtConfig, "reg_lambda"), (GbtConfig, "disagree_scale")])
    def test_nonfinite_settings_refused(self, config, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            config(**{name: value})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            MlpConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            GbtConfig(max_depth=0)
        with pytest.raises(ValueError):
            GbtConfig(num_rounds=0)
        with pytest.raises(ValueError):
            LearnerConfig(kind="svm")

    def test_auc_metric(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        y = np.array([1, 1, 0, 1, 0])
        # pairs: (1,.9)(1,.8)(1,.6) vs (0,.7)(0,.5): 5 of 6 pairs correct
        assert auc_binary(scores, y) == pytest.approx(5 / 6)
        assert auc_binary(np.ones(5), y) == 0.5
