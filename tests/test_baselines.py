import numpy as np
import pytest

from conftest import small_gbt_config, small_mlp_config
from shiftguard.baselines import (
    bbsd_stat,
    ctst_stat,
    ensemble_disagreement_stat,
    ensemble_entropy_stat,
    make_baseline_detector,
    train_ensemble,
)
from shiftguard.cdc import CdcTrainSpec
from shiftguard.data import Dataset, ShiftTaskSpec
from shiftguard.detectron import (BenchmarkTask, PartitionedData,
                                  evaluate_power, prepare_task)
from shiftguard.learners import Model, fit, model_fingerprint
from shiftguard.numerics import rng_stream, softmax_rows


class ThresholdModel(Model):
    """Predicts class 1 iff feature 0 exceeds a threshold; confidence set
    by a fixed margin scale."""
    kind = "stub"

    def __init__(self, threshold=0.0, scale=8.0, num_classes=2):
        self.threshold = threshold
        self.scale = scale
        self.num_classes = num_classes
        self.feature_dim = 2
        self.training_seed = (0, 0)
        self.val_score = 1.0

    def predict_proba_matrix(self, X):
        X = self._check_matrix(X)
        margin = (X[:, 0] - self.threshold) * self.scale
        logits = np.zeros((X.shape[0], self.num_classes))
        logits[:, 1] = margin
        return softmax_rows(logits)


class UniformModel(Model):
    kind = "stub"

    def __init__(self):
        self.num_classes = 2
        self.feature_dim = 2
        self.training_seed = (0, 0)
        self.val_score = 1.0

    def predict_proba_matrix(self, X):
        X = self._check_matrix(X)
        return np.full((X.shape[0], 2), 0.5)


def rows_at(x0_values):
    X = np.zeros((len(x0_values), 2))
    X[:, 0] = x0_values
    return X


class TestEnsembleDisagreement:
    def test_unanimous_everywhere_no_shift(self):
        models = [ThresholdModel(0.0), ThresholdModel(0.0)]
        ref = rows_at(np.linspace(-3, 3, 200))
        q = rows_at(np.linspace(-2, 2, 20))
        p, flags = ensemble_disagreement_stat(models, ref, q)
        assert p == 1.0
        assert "smoothed_rate" in flags  # reference rate was exactly 0

    def test_binomial_tail_scale(self):
        # reference disagreement rate 0.1; all 10 Q samples disagreed
        models = [ThresholdModel(0.0), ThresholdModel(1.0)]
        ref = rows_at(np.concatenate([np.full(100, 0.5),    # disagreement zone
                                      np.full(450, -2.0),
                                      np.full(450, 2.0)]))
        q = rows_at(np.full(10, 0.5))
        p, flags = ensemble_disagreement_stat(models, ref, q)
        assert p == pytest.approx(0.1 ** 10, rel=1e-6)
        assert flags == ()

    def test_ensemble_members_vary_only_by_seed(self, null_task_data):
        data = PartitionedData(null_task_data["train"], null_task_data["val"],
                               null_task_data["holdout"])
        models = train_ensemble(small_gbt_config(), data, 3,
                                rng_stream(1, 0))
        again = train_ensemble(small_gbt_config(), data, 3,
                               rng_stream(1, 0))
        probe = rng_stream(2, 0).normal((40, 2))
        for a, b in zip(models, again):
            np.testing.assert_array_equal(a.predict_proba_matrix(probe),
                                          b.predict_proba_matrix(probe))
        assert not np.array_equal(models[0].predict_proba_matrix(probe),
                                  models[1].predict_proba_matrix(probe))
        # member i is the base fit on the stream's split i
        assert [model_fingerprint(m) for m in models] == [
            model_fingerprint(fit(small_gbt_config(), *data.train_pair(),
                                  *data.val_pair(), rng_stream(1, 0).split(i)))
            for i in range(3)]

    def test_ensemble_size_below_two_refused(self, null_task_data):
        data = PartitionedData(null_task_data["train"], null_task_data["val"],
                               null_task_data["holdout"])
        with pytest.raises(ValueError, match="ensemble size must be >= 2"):
            train_ensemble(small_gbt_config(), data, 1, rng_stream(1, 0))


class TestEnsembleEntropy:
    def test_identical_sets_p_one(self):
        models = [ThresholdModel(0.0), ThresholdModel(0.5)]
        ref = rows_at(np.linspace(-3, 3, 50))
        p, _ = ensemble_entropy_stat(models, ref, ref.copy())
        assert p == 1.0

    def test_confident_vs_uniform_minimal_p(self):
        confident = [ThresholdModel(0.0, scale=50.0)]
        ref = rows_at(np.concatenate([np.full(60, -3.0), np.full(60, 3.0)]))
        q = rows_at(np.zeros(60))  # sits on the boundary: maximum entropy
        p, _ = ensemble_entropy_stat(confident, ref, q)
        assert p < 1e-12


class TestBbsd:
    def test_identical_sets_p_one(self):
        f = ThresholdModel(0.0)
        ref = rows_at(np.linspace(-3, 3, 40))
        p, _ = bbsd_stat(f, ref, ref.copy())
        assert p == 1.0

    def test_binary_dims_affinely_dependent(self):
        from shiftguard.stats import ks_two_sample
        f = ThresholdModel(0.0)
        ref = rows_at(np.linspace(-3, 3, 30))
        q = rows_at(np.linspace(-1, 4, 12))
        p, _ = bbsd_stat(f, ref, q)
        p0 = ks_two_sample(f.predict_proba_matrix(q)[:, 0],
                           f.predict_proba_matrix(ref)[:, 0]).p_value
        p1 = ks_two_sample(f.predict_proba_matrix(q)[:, 1],
                           f.predict_proba_matrix(ref)[:, 1]).p_value
        assert p0 == pytest.approx(p1, abs=1e-12)
        assert p == pytest.approx(min(1.0, 2.0 * p1), abs=1e-12)

    def test_shift_in_one_dimension_bounded(self):
        f = ThresholdModel(0.0)
        ref = rows_at(np.linspace(-3, 3, 64))
        q = rows_at(np.full(16, 2.7))
        from shiftguard.stats import ks_two_sample
        p, _ = bbsd_stat(f, ref, q)
        p1 = ks_two_sample(f.predict_proba_matrix(q)[:, 1],
                           f.predict_proba_matrix(ref)[:, 1]).p_value
        assert p <= 2.0 * p1 + 1e-12


class TestCtst:
    def test_indistinguishable_domains_near_chance(self):
        rng = rng_stream(3, 0)
        pool = rng.normal((400, 2))
        q = rng.normal((40, 2))
        p, _ = ctst_stat(small_gbt_config(), pool, q, rng_stream(3, 1))
        assert p > 0.2

    def test_separable_domains_small_p(self):
        rng = rng_stream(4, 0)
        pool = rng.normal((400, 2))
        q = rng.normal((40, 2))
        q[:, 1] += 50.0
        p, _ = ctst_stat(small_gbt_config(), pool, q, rng_stream(4, 1))
        # 40 held-out rows classified perfectly: P(X >= 40 | Bin(40, .5))
        assert p < 1e-9

    def test_too_small_q_errors(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            ctst_stat(small_gbt_config(), np.zeros((10, 2)), np.zeros((2, 2)),
                      rng_stream(0, 0))


@pytest.fixture(scope="module")
def baseline_env():
    task = BenchmarkTask(
        data_spec=ShiftTaskSpec(generator="gauss_mean_shift", n_source=1200,
                                n_target=600, seed=19),
        learner=small_mlp_config(), cdc=CdcTrainSpec(max_opt_steps=5), K=40)
    data, target_X, f = prepare_task(task, rng_stream(70, 0))
    return {"task": task, "data": data, "target_X": target_X, "f": f}


BASELINE_IDS = ["ensemble_disagreement", "ensemble_entropy", "bbsd", "ctst"]


class TestCalibratedBaselines:
    @pytest.mark.parametrize("detector_id", BASELINE_IDS)
    def test_calibrated_verdicts_and_power(self, baseline_env, detector_id):
        env = baseline_env
        verdict_fn = make_baseline_detector(
            detector_id, env["task"].learner, env["data"], env["f"], 50,
            env["task"].K, 0.05, rng_stream(71, 0))
        hits = 0
        for t in range(10):
            rng = rng_stream(72, t)
            idx = rng.sample_without_replacement(env["target_X"].shape[0], 50)
            v = verdict_fn(env["target_X"][idx], rng)
            assert v.test == detector_id
            assert 0.0 <= v.statistic <= 1.0
            hits += v.shift_detected
        assert hits >= 1, "sanity floor: some detections on a far shift"

    def test_size_mismatch_rejected(self, baseline_env):
        env = baseline_env
        verdict_fn = make_baseline_detector(
            "bbsd", env["task"].learner, env["data"], env["f"], 50,
            env["task"].K, 0.05, rng_stream(71, 1))
        with pytest.raises(ValueError, match="sample size"):
            verdict_fn(env["target_X"][:10], rng_stream(0, 0))

    def test_insufficient_holdout_rejected(self, baseline_env):
        env = baseline_env
        tiny = PartitionedData(env["data"].train, env["data"].val,
                               env["data"].holdout.take(range(30)))
        with pytest.raises(ValueError, match="insufficient held-out"):
            make_baseline_detector("bbsd", env["task"].learner, tiny,
                                   env["f"], 50, 40, 0.05, rng_stream(71, 2))

    def test_unknown_baseline_rejected(self, baseline_env):
        env = baseline_env
        with pytest.raises(ValueError, match="unknown baseline"):
            make_baseline_detector("mmd", env["task"].learner, env["data"],
                                   env["f"], 20, 40, 0.05, rng_stream(0, 0))


@pytest.fixture(scope="module")
def null_env():
    task = BenchmarkTask(
        data_spec=ShiftTaskSpec(generator="null_resample", n_source=2000,
                                n_target=3000, seed=23),
        learner=small_mlp_config(), cdc=CdcTrainSpec(max_opt_steps=5),
        K=100)
    data, target_X, f = prepare_task(task, rng_stream(75, 0))
    return {"task": task, "data": data, "target_X": target_X, "f": f}


class TestBaselineStatisticalBehavior:
    @pytest.mark.parametrize("detector_id", BASELINE_IDS)
    def test_null_fpr_within_band(self, null_env, detector_id):
        env = null_env
        verdict_fn = make_baseline_detector(
            detector_id, env["task"].learner, env["data"], env["f"], 20,
            100, 0.05, rng_stream(76, 0))
        hits = 0
        for t in range(200):
            rng = rng_stream(77, t)
            idx = rng.sample_without_replacement(env["target_X"].shape[0], 20)
            hits += verdict_fn(env["target_X"][idx], rng).shift_detected
        assert 2 <= hits <= 22, f"{detector_id}: {hits}/200 null detections"

    def test_far_shift_baselines_positive_detectron_leads(self, baseline_env):
        """Directional comparison at N=50: every baseline above zero,
        detectron entropy at least as powerful as each."""
        env = baseline_env
        trials = 40
        task, rng = env["task"], rng_stream(78, 0)
        prepared = prepare_task(task, rng.split(0))
        tpr_det, _ = evaluate_power(task, "detectron_entropy", 50, trials,
                                    0.05, rng, prepared)
        for detector_id in BASELINE_IDS:
            tpr, _ = evaluate_power(task, detector_id, 50, trials, 0.05,
                                    rng, prepared)
            assert tpr > 0.0, detector_id
            assert tpr_det >= tpr, (detector_id, tpr, tpr_det)
