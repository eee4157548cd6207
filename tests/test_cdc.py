import math

import numpy as np
import pytest

from conftest import separable_blob, small_gbt_config, small_mlp_config
from oracles import reference_margins
from shiftguard import cdc, learners
from shiftguard.cdc import (
    CdcEnsemble,
    CdcTrainSpec,
    build_ensemble,
    build_ensembles,
    cdc_entropy,
    pseudo_label,
    train_cdc,
)
from shiftguard.learners import Model, fit, fit_disagreeing
from shiftguard.numerics import rng_stream, softmax_rows


class _StubModel(Model):
    """Fixed-logit model for hand-computable ensemble arithmetic."""
    kind = "stub"

    def __init__(self, logit_fn, num_classes, feature_dim=2):
        self.logit_fn = logit_fn
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.training_seed = (0, 0)
        self.val_score = 1.0

    def predict_proba_matrix(self, X):
        X = self._check_matrix(X)
        return softmax_rows(np.vstack([self.logit_fn(x) for x in X]))


def constant_stub(logits, num_classes):
    arr = np.asarray(logits, dtype=float)
    return _StubModel(lambda x: arr, num_classes)


@pytest.fixture(scope="module")
def blob_models():
    X, y = separable_blob()
    Xt, yt, Xv, yv = X[:-50], y[:-50], X[-50:], y[-50:]
    out = {}
    for name, config in (("mlp", small_mlp_config()),
                         ("gbt", small_gbt_config())):
        out[name] = (config, fit(config, Xt, yt, Xv, yv, rng_stream(20, 0)),
                     (Xt, yt), (Xv, yv))
    return out


class TestPseudoLabel:
    def test_constant_predictor(self):
        f = constant_stub([0.0, 0.0, 0.0, 5.0], 4)
        X = rng_stream(21, 0).normal((12, 2))
        np.testing.assert_array_equal(pseudo_label(f, X), np.full(12, 3))

    def test_invariant_to_shuffling(self):
        _, f, _, _ = None, None, None, None
        model = constant_stub([1.0, -1.0], 2)
        X = rng_stream(21, 1).normal((20, 2))
        perm = rng_stream(21, 2).permutation(20)
        np.testing.assert_array_equal(pseudo_label(model, X)[perm],
                                      pseudo_label(model, X[perm]))

    def test_matches_true_labels_on_separable_blob(self, blob_models):
        _, f, _, _ = blob_models["gbt"]
        X, y = separable_blob(n=300, seed=33)
        agree = np.mean(pseudo_label(f, X) == y)
        assert agree >= 0.99

    def test_empty_input(self, blob_models):
        for _, f, _, _ in blob_models.values():
            assert pseudo_label(f, np.empty((0, 2))).size == 0


class TestTrainCdc:
    def test_unit_tolerance_runs_all_epochs(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        rng = rng_stream(22, 0)
        Xq = rng.normal((10, 2))
        Xq[:, 1] += 9.0
        spec = CdcTrainSpec(val_tolerance=1.0, max_epochs_per_cdc=7)
        g = train_cdc(config, p_train, p_val, [(Xq, pseudo_label(f, Xq))],
                      f, spec, [rng_stream(22, 1)])[0]
        assert len(g.rounds) == len(f.rounds) + 7

    def test_unit_tolerance_runs_all_epochs_mlp(self, blob_models):
        config, f, p_train, p_val = blob_models["mlp"]
        rng = rng_stream(22, 2)
        Xq = rng.normal((10, 2))
        Xq[:, 1] += 9.0
        spec = CdcTrainSpec(val_tolerance=1.0, max_epochs_per_cdc=4)
        g = train_cdc(config, p_train, p_val, [(Xq, pseudo_label(f, Xq))],
                      f, spec, [rng_stream(22, 3)])[0]
        from shiftguard.learners import batches_per_epoch
        expected = 4 * batches_per_epoch(config, p_train[0].shape[0], 10)
        assert g._opt_state.t == expected

    def test_max_opt_steps_caps_training(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        Xq = rng_stream(22, 4).normal((10, 2)) + 5.0
        spec = CdcTrainSpec(val_tolerance=1.0, max_epochs_per_cdc=10,
                            max_opt_steps=3)
        g = train_cdc(config, p_train, p_val, [(Xq, pseudo_label(f, Xq))],
                      f, spec, [rng_stream(22, 5)])[0]
        assert len(g.rounds) == len(f.rounds) + 3

    @pytest.mark.parametrize("kind", ["mlp", "gbt"])
    def test_null_q_preserves_constraint(self, blob_models, kind):
        config, f, p_train, p_val = blob_models[kind]
        Xq, _ = separable_blob(n=20, seed=55)
        spec = CdcTrainSpec()
        g = train_cdc(config, p_train, p_val, [(Xq, pseudo_label(f, Xq))],
                      f, spec, [rng_stream(23, 0)])[0]
        from shiftguard.learners import evaluate_metric
        m = evaluate_metric(g, p_val[0], p_val[1], config.val_metric)
        assert m >= f.val_score - spec.val_tolerance

    def test_missing_base_metric_errors(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        broken = constant_stub([0.0, 1.0], 2)
        broken.val_score = None
        with pytest.raises(ValueError, match="validation metric"):
            train_cdc(config, p_train, p_val,
                      [(np.zeros((2, 2)), np.zeros(2, np.int64))],
                      broken, CdcTrainSpec(), [rng_stream(23, 1)])[0]

    def test_shifted_q_beats_paired_null_sample(self, blob_models):
        # paired comparison over 20 seeded trials: disagreement on a
        # far-shifted sample exceeds disagreement on held-out P
        config, f, p_train, p_val = blob_models["gbt"]
        spec = CdcTrainSpec(max_opt_steps=5)
        wins = 0
        for trial in range(20):
            rng = rng_stream(24, trial)
            X_null, _ = separable_blob(n=20, seed=1000 + trial)
            X_shift = rng.normal((20, 2))
            X_shift[:, 1] += 9.0
            g_null = train_cdc(config, p_train, p_val,
                               [(X_null, pseudo_label(f, X_null))],
                               f, spec, [rng.split(0)])[0]
            g_shift = train_cdc(config, p_train, p_val,
                                [(X_shift, pseudo_label(f, X_shift))],
                                f, spec, [rng.split(1)])[0]
            dis_null = np.mean(
                g_null.predict_labels(X_null) != pseudo_label(f, X_null))
            dis_shift = np.mean(
                g_shift.predict_labels(X_shift) != pseudo_label(f, X_shift))
            wins += dis_shift > dis_null
        assert wins >= 18


class TestBuildEnsemble:
    @pytest.mark.parametrize("kind", ["mlp", "gbt"])
    def test_phi_monotone_and_bookkeeping(self, blob_models, kind):
        config, f, p_train, p_val = blob_models[kind]
        rng = rng_stream(25, 0)
        Xq = rng.normal((30, 2))
        Xq[:, 1] += 9.0
        ens = build_ensemble(config, p_train, p_val, Xq, f,
                             CdcTrainSpec(), rng_stream(25, 1))
        assert 1 <= len(ens.members) <= 5
        assert len(ens.per_round_phi) == len(ens.members)
        phi = ens.per_round_phi
        assert all(a <= b + 1e-12 for a, b in zip(phi, phi[1:]))
        # each round's phi is the share of Q that some member so far
        # disagrees on, recomputed from the members
        pseudo = pseudo_label(f, Xq)
        agreed = np.ones(30, dtype=bool)
        for g, phi in zip(ens.members, ens.per_round_phi):
            agreed &= g.predict_labels(Xq) == pseudo
            assert phi == pytest.approx(1.0 - agreed.sum() / 30)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_gbt_member_margins_equal_tree_sums(self, n_classes):
        """Members carry margins through their warm-started rounds; on
        P_train, P_val and the Q rows each member trained against they
        must have the bytes of a from-scratch sum of the member's trees,
        also after the caller edits those rows in place."""
        rng = rng_stream(26, n_classes)
        labels = np.arange(240) % n_classes
        X = rng.normal((240, 2))
        X[:, 0] += 1.5 * labels
        p_train, p_val = (X[:160], labels[:160]), (X[160:200], labels[160:200])
        Xq = X[200:]
        config = small_gbt_config(num_rounds=4, max_depth=4)
        f = fit(config, *p_train, *p_val, rng.split(1))
        ens = build_ensemble(config, p_train, p_val, Xq, f,
                             CdcTrainSpec(val_tolerance=1.0, max_opt_steps=3),
                             rng.split(2))
        assert all(len(g.rounds) == len(f.rounds) + 3 for g in ens.members)
        pseudo = pseudo_label(f, Xq)
        surviving = np.arange(Xq.shape[0])
        for g in [f, *ens.members]:
            for rows in (p_train[0], p_val[0], Xq, Xq[surviving]):
                assert (g.margins(rows).tobytes()
                        == reference_margins(g, rows).tobytes())
            if g is not f:
                surviving = surviving[
                    g.predict_labels(Xq[surviving]) == pseudo[surviving]]
        p_val[0][0] += 3.0     # the caller edits its rows in place
        for g in [f, *ens.members]:
            assert (g.margins(p_val[0]).tobytes()
                    == reference_margins(g, p_val[0]).tobytes())

    def test_all_disagreed_first_round_stops_loop(self, blob_models,
                                                  monkeypatch):
        config, f, p_train, p_val = blob_models["gbt"]
        flipper = _StubModel(lambda x: np.array([0.0, 1.0]), 2)

        def fake_train(config, ptr, pv, qps, f_, spec, rngs):
            return [flipper if np.all(f_.predict_labels(qp[0]) == 0)
                    else constant_stub([1.0, 0.0], 2) for qp in qps]

        monkeypatch.setattr(cdc, "train_cdc", fake_train)
        Xq = np.tile([-4.5, 0.0], (8, 1))  # all predicted class 0 by f
        ens = build_ensemble(config, p_train, p_val, Xq, f,
                             CdcTrainSpec(), rng_stream(26, 0))
        assert len(ens.members) == 1
        assert ens.phi_final == 1.0
        assert np.all(ens.members[0].predict_labels(Xq)
                      != pseudo_label(f, Xq))

    def test_phi_arithmetic(self):
        ens = CdcEnsemble(base=constant_stub([0.0, 1.0], 2),
                          per_round_phi=[0.4, 0.76])
        assert ens.phi_final == pytest.approx(0.76)
        assert CdcEnsemble(base=ens.base).phi_final == 0.0

    def test_empty_target_errors(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        with pytest.raises(ValueError):
            build_ensemble(config, p_train, p_val, np.empty((0, 2)), f,
                           CdcTrainSpec(), rng_stream(26, 1))


class TestRowChecks:
    """P_train, P_val and the Qs are checked once per ``train_cdc`` call,
    with the messages a direct ``fit_disagreeing`` call gives."""

    @pytest.mark.parametrize("kind", ["mlp", "gbt"])
    def test_nan_p_train_row_refused(self, blob_models, kind):
        config, f, (Xt, yt), p_val = blob_models[kind]
        Xt = Xt.copy()
        Xt[3, 1] = np.nan
        Xq = p_val[0][:10]
        with pytest.raises(ValueError, match="P_train features hold NaN"):
            build_ensemble(config, (Xt, yt), p_val, Xq, f, CdcTrainSpec(),
                           rng_stream(27, 0))
        with pytest.raises(ValueError, match="P_train features hold NaN"):
            fit_disagreeing(config, [f], (Xt, yt), p_val,
                            [(Xq, pseudo_label(f, Xq))], [0.1],
                            [rng_stream(27, 1)])

    def test_rows_checked_once_per_train_cdc(self, blob_models,
                                             monkeypatch):
        config, f, p_train, p_val = blob_models["gbt"]
        checked, epochs = [], []
        check, fit_epoch = learners._finite_features, cdc.fit_disagreeing
        monkeypatch.setattr(learners, "_finite_features",
                            lambda X, name: checked.append(name)
                            or check(X, name))
        monkeypatch.setattr(cdc, "fit_disagreeing",
                            lambda *a, **k: epochs.append(k["checked"])
                            or fit_epoch(*a, **k))
        Xq = rng_stream(27, 2).normal((12, 2)) + 3.0
        ens = build_ensemble(config, p_train, p_val, Xq, f,
                             CdcTrainSpec(max_opt_steps=3), rng_stream(27, 3))
        assert checked.count("P_train") == len(ens.members)
        assert checked.count("Q") == len(ens.members)
        assert len(epochs) > len(ens.members) and all(epochs)


def mixed_targets(seed, sizes=(10, 10, 12, 10, 10, 12, 10, 10, 10, 12, 10)):
    """Eleven target sets: in-distribution blob rows, and rows shifted
    far along feature 1 by a growing amount, of two sizes."""
    rng = rng_stream(seed, 0)
    targets = []
    for i, n in enumerate(sizes):
        if i % 3 == 0:
            X, _ = separable_blob(n=n, seed=seed + i)
        else:
            X = rng.normal((n, 2))
            X[:, 1] += 2.0 * i
        targets.append(X)
    return targets


def three_class_models(config):
    rng = rng_stream(28, 0)
    labels = np.arange(300) % 3
    X = rng.normal((300, 2))
    X[:, 0] += 2.0 * (labels == 1)
    X[:, 1] += 2.0 * (labels == 2)
    p_train, p_val = (X[:210], labels[:210]), (X[210:], labels[210:])
    f = fit(config, *p_train, *p_val, rng.split(1))
    return f, p_train, p_val


class TestLockstepEnsembles:
    """``build_ensembles`` trains the runs of each member round together;
    every run must come out as its own one-run ``build_ensemble`` call."""

    @staticmethod
    def assert_as_one_run_calls(config, f, p_train, p_val, targets, spec):
        rngs = [rng_stream(29, i) for i in range(len(targets))]
        together = build_ensembles(config, p_train, p_val, targets, f, spec,
                                   rngs)
        for i, (X, ens) in enumerate(zip(targets, together)):
            rng = rng_stream(29, i)
            alone = build_ensemble(config, p_train, p_val, X, f, spec, rng)
            assert ens.per_round_phi == alone.per_round_phi
            assert (cdc_entropy(ens, X).tobytes()
                    == cdc_entropy(alone, X).tobytes())
            assert rngs[i]._counter == rng._counter
        return together

    def test_binary_mlp_with_dropout(self, blob_models):
        config, f, p_train, p_val = blob_models["mlp"]
        assert config.mlp.dropout_rate > 0.0
        ens = self.assert_as_one_run_calls(
            config, f, p_train, p_val, mixed_targets(30),
            CdcTrainSpec(max_opt_steps=5))
        # shifted runs leave their groups at other rounds than null ones
        assert len({len(e.members) for e in ens}) > 1

    def test_three_class_mlp_fill_one(self):
        # l2 on and batch 8 <= N: each batch holds one P row beside Q
        config = small_mlp_config(hidden_sizes=(8, 8), batch_size=8,
                                  l2=1e-3, max_epochs=20, patience=5)
        f, p_train, p_val = three_class_models(config)
        targets = [t + 1.0 for t in mixed_targets(31)]
        assert f.num_classes == 3
        self.assert_as_one_run_calls(config, f, p_train, p_val, targets,
                                     CdcTrainSpec(ensemble_max=3,
                                                  max_opt_steps=40))

    def test_mlp_full_epochs(self, monkeypatch):
        """No step cap, on overlapping classes: whole epochs ending in a
        short batch, warm restarts that carry Adam moments, and
        validation guard stops."""
        config = small_mlp_config()
        f, p_train, p_val = three_class_models(config)
        assert p_train[0].shape[0] % (config.mlp.batch_size - 10) != 0
        spec = CdcTrainSpec(max_epochs_per_cdc=6)
        qs = []    # the Qs of each epoch, kept alive so ids stay unique
        real = cdc.fit_disagreeing
        monkeypatch.setattr(cdc, "fit_disagreeing", lambda *a, **k:
                            qs.append(list(a[4])) or real(*a, **k))
        targets = [t + 1.0 for t in mixed_targets(32)]
        self.assert_as_one_run_calls(config, f, p_train, p_val, targets,
                                     spec)
        groups = [{id(q) for q in epoch} for epoch in qs]
        pairs = list(zip(groups, groups[1:]))
        # a CDC's next epoch on the same group: a warm restart
        assert any(later == earlier for earlier, later in pairs)
        # a later epoch of a CDC trained on a strict subset of its group:
        # some run's guard tripped while the others went on
        assert any(later < earlier for earlier, later in pairs)

    def test_mlp_without_hidden_layers(self, blob_models):
        _, _, p_train, p_val = blob_models["mlp"]
        config = small_mlp_config(hidden_sizes=())
        f = fit(config, *p_train, *p_val, rng_stream(33, 0))
        self.assert_as_one_run_calls(config, f, p_train, p_val,
                                     mixed_targets(33),
                                     CdcTrainSpec(max_opt_steps=5))

    def test_gbt(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        ens = self.assert_as_one_run_calls(config, f, p_train, p_val,
                                           mixed_targets(34),
                                           CdcTrainSpec(max_opt_steps=3))
        # GBT runs train together whatever their survivor counts
        assert len({e.per_round_phi[0] for e in ens}) > 1

    def test_gbt_three_class_colsample(self):
        """Two replicas per target row, and a column subset drawn per
        class per round from each run's own stream."""
        config = small_gbt_config(num_rounds=4, max_depth=4, colsample=0.5)
        f, p_train, p_val = three_class_models(config)
        ens = self.assert_as_one_run_calls(
            config, f, p_train, p_val, [t + 1.0 for t in mixed_targets(35)],
            CdcTrainSpec(max_opt_steps=3))
        assert len({e.per_round_phi[0] for e in ens}) > 1

    def test_gbt_guard_trips(self):
        """No step cap: some runs' validation guards trip, at the first
        round too (the member is the base model), while the others go
        on."""
        config = small_gbt_config(num_rounds=4, max_depth=4)
        f, p_train, p_val = three_class_models(config)
        spec = CdcTrainSpec(max_epochs_per_cdc=6, val_tolerance=0.02)
        ens = self.assert_as_one_run_calls(
            config, f, p_train, p_val, [t + 1.0 for t in mixed_targets(35)],
            spec)
        rounds = [len(g.rounds) - len(f.rounds)
                  for e in ens for g in e.members]
        assert 0 in rounds and spec.max_epochs_per_cdc in rounds
        assert any(0 < r < spec.max_epochs_per_cdc for r in rounds)


class TestCdcEntropy:
    def test_unanimous_one_hot_is_zero(self):
        base = constant_stub([40.0, 0.0], 2)
        member = constant_stub([40.0, 0.0], 2)
        ens = CdcEnsemble(base=base, members=[member])
        assert cdc_entropy(ens, np.zeros((1, 2)))[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_perfect_split_gives_log_two(self):
        base = constant_stub([60.0, 0.0], 2)      # (1, 0)
        member = constant_stub([0.0, 60.0], 2)    # (0, 1)
        ens = CdcEnsemble(base=base, members=[member])
        assert cdc_entropy(ens, np.zeros((1, 2)))[0] == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_bounded_by_log_n(self, blob_models):
        config, f, p_train, p_val = blob_models["gbt"]
        Xq = rng_stream(27, 0).normal((25, 2)) * 2
        ens = build_ensemble(config, p_train, p_val, Xq, f, CdcTrainSpec(),
                             rng_stream(27, 1))
        values = cdc_entropy(ens, rng_stream(27, 2).normal((1000, 2)) * 5)
        assert np.all(values >= -1e-12)
        assert np.all(values <= math.log(f.num_classes) + 1e-12)


class TestSpecValidation:
    def test_bad_spec_values(self):
        with pytest.raises(ValueError):
            CdcTrainSpec(ensemble_max=0)
        with pytest.raises(ValueError):
            CdcTrainSpec(val_tolerance=0.0)
        with pytest.raises(ValueError):
            CdcTrainSpec(max_epochs_per_cdc=0)
        with pytest.raises(ValueError):
            CdcTrainSpec(max_opt_steps=0)
