import numpy as np
import pytest

from shiftguard.data import (
    Dataset,
    ShiftTaskSpec,
    load_csv,
    partition,
    synth_generate,
    uci_prepare,
    UCI_FEATURES,
)
from shiftguard.numerics import rng_stream
from shiftguard.stats import ks_two_sample


class TestDataset:
    def test_fingerprint_content_addressed(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        a = Dataset(X.copy(), np.array([0, 1, 0]), name="a")
        b = Dataset(X.copy(), np.array([0, 1, 0]), name="b")
        assert a.fingerprint == b.fingerprint
        c = Dataset(X + 1e-12, np.array([0, 1, 0]))
        assert a.fingerprint != c.fingerprint
        d = Dataset(X.copy(), None)
        assert a.fingerprint != d.fingerprint

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan]]))

    def test_take_preserves_alignment(self):
        ds = Dataset(np.arange(10, dtype=float).reshape(5, 2),
                     np.arange(5) % 2)
        sub = ds.take([4, 1])
        np.testing.assert_array_equal(sub.features[:, 0], [8.0, 2.0])
        np.testing.assert_array_equal(sub.labels, [0, 1])


class TestLoadCsv:
    def test_exact_matrix_no_missing(self, tmp_path):
        p = tmp_path / "fix.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.features,
                                      [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_same_file_same_fingerprint(self, tmp_path):
        p = tmp_path / "fix.csv"
        p.write_text("a,y\n1,0\n2,1\n3,0\n")
        assert load_csv(p).fingerprint == load_csv(p).fingerprint

    def test_unparseable_cell_names_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,0\nbogus,1\n")
        with pytest.raises(ValueError, match="row 3.*'a'"):
            load_csv(p)

    def test_missing_cell_policy_error(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,y\n1,0\n?,1\n")
        with pytest.raises(ValueError,
                           match="missing value at row 3, column 'a'$"):
            load_csv(p)


class TestPartition:
    def make(self, n=100, classes=3, seed=0):
        rng = rng_stream(seed, 0)
        labels = rng.integers(classes, n)
        return Dataset(rng.normal((n, 4)), labels, name="fix")

    def test_sizes_exact(self):
        ds = self.make()
        tr, va, ho = partition(ds, (0.7, 0.1, 0.2), rng_stream(1, 0))
        assert (len(tr), len(va), len(ho)) == (70, 10, 20)

    def test_union_is_original_multiset(self):
        ds = self.make(97)
        tr, va, ho = partition(ds, (0.7, 0.1, 0.2), rng_stream(2, 0))
        assert len(tr) + len(va) + len(ho) == 97
        rebuilt = np.vstack([tr.features, va.features, ho.features])
        assert (np.sort(rebuilt[:, 0]).tolist()
                == np.sort(ds.features[:, 0]).tolist())

    def test_per_class_proportions_within_one(self):
        ds = self.make(120, classes=3, seed=5)
        tr, va, ho = partition(ds, (0.7, 0.1, 0.2), rng_stream(3, 0))
        for c in range(3):
            n_c = int(np.sum(ds.labels == c))
            for part, frac in ((tr, 0.7), (va, 0.1), (ho, 0.2)):
                got = int(np.sum(part.labels == c))
                assert abs(got - frac * n_c) <= 1.0 + 1e-9

    def test_deterministic(self):
        ds = self.make(80)
        a = partition(ds, rng=rng_stream(4, 0))
        b = partition(ds, rng=rng_stream(4, 0))
        for x, z in zip(a, b):
            np.testing.assert_array_equal(x.features, z.features)

    def test_small_class_errors(self):
        ds = Dataset(np.zeros((5, 1)), np.array([0, 0, 0, 1, 1]))
        with pytest.raises(ValueError, match="cannot stratify"):
            partition(ds, rng=rng_stream(0, 0))

    def test_bad_fractions(self):
        ds = self.make()
        with pytest.raises(ValueError):
            partition(ds, (0.5, 0.5, 0.5), rng_stream(0, 0))


class TestSynthGenerate:
    def test_null_resample_not_shifted(self):
        spec = ShiftTaskSpec(generator="null_resample", seed=3)
        source, target, shifted = synth_generate(spec)
        assert not shifted
        assert source.labels is not None
        assert target.labels is None

    def test_null_per_feature_ks_large_sample(self):
        spec = ShiftTaskSpec(generator="null_resample",
                             n_source=10_000, n_target=10_000, seed=4)
        source, target, _ = synth_generate(spec)
        for j in range(source.features.shape[1]):
            res = ks_two_sample(source.features[:, j], target.features[:, j])
            assert res.p_value > 0.01, f"feature {j}"

    def test_gauss_shift_translates_orthogonal_axis(self):
        spec = ShiftTaskSpec(generator="gauss_mean_shift", seed=5,
                             params={"delta": 8.0})
        source, target, shifted = synth_generate(spec)
        assert shifted
        assert abs(target.features[:, 1].mean()
                   - source.features[:, 1].mean() - 8.0) < 0.3
        # class-informative axis distribution untouched
        res = ks_two_sample(source.features[:, 0], target.features[:, 0])
        assert res.p_value > 0.01

    def test_zero_rotation_rejected_as_spec(self):
        with pytest.raises(ValueError):
            ShiftTaskSpec(generator="boundary_rotation", params={"theta": 0.0})

    def test_rotation_moves_covariates(self):
        spec = ShiftTaskSpec(generator="boundary_rotation", seed=6,
                             params={"theta": 1.0})
        source, target, shifted = synth_generate(spec)
        assert shifted
        assert target.labels is None

    def test_reveal_labels_preserves_conditional(self):
        spec = ShiftTaskSpec(generator="gauss_mean_shift", seed=7,
                             params={"delta": 6.0})
        _, target, _ = synth_generate(spec, reveal_labels=True)
        # the generating rule classifies by the sign of feature 0
        agree = np.mean((target.features[:, 0] > 0).astype(int)
                        == target.labels)
        assert agree > 0.8

    def test_deterministic_given_seed(self):
        spec = ShiftTaskSpec(generator="boundary_rotation", seed=8)
        a = synth_generate(spec)
        b = synth_generate(spec)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            ShiftTaskSpec(generator="mystery")


def write_uci_fixture(tmp_path):
    """Tiny files in the raw 14-column format with '?' gaps."""
    rows_cle = [
        "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0",
        "67.0,1.0,4.0,160.0,286.0,0.0,2.0,108.0,1.0,1.5,2.0,3.0,3.0,2",
        "41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.4,1.0,0.0,3.0,0",
    ]
    rows_hun = [
        "44.0,1.0,2.0,120.0,263.0,0.0,0.0,173.0,0.0,0.0,1.0,0.0,7.0,0",
        "52.0,1.0,3.0,?,199.0,1.0,0.0,162.0,0.0,0.5,1.0,0.0,7.0,1",
    ]
    rows_swi = [
        "65.0,1.0,4.0,115.0,0.0,0.0,0.0,93.0,1.0,0.0,2.0,?,7.0,1",
        "32.0,1.0,1.0,95.0,0.0,?,0.0,127.0,0.0,.7,1.0,?,?,1",
    ]
    rows_va = [
        "63.0,1.0,4.0,140.0,260.0,0.0,1.0,112.0,1.0,3.0,2.0,?,?,2",
        "44.0,1.0,4.0,130.0,209.0,0.0,1.0,127.0,0.0,0.0,?,?,?,0",
    ]
    for name, rows in [("processed.cleveland.data", rows_cle),
                       ("processed.hungarian.data", rows_hun),
                       ("processed.switzerland.data", rows_swi),
                       ("processed.va.data", rows_va)]:
        (tmp_path / name).write_text("\n".join(rows) + "\n")


class TestUciPrepare:
    def test_split_and_binarization(self, tmp_path):
        write_uci_fixture(tmp_path)
        source, target = uci_prepare(tmp_path)
        assert len(source) == 5    # cleveland + hungary
        assert len(target) == 4    # switzerland + va
        assert source.features.shape[1] == len(UCI_FEATURES) == 9
        np.testing.assert_array_equal(source.labels, [0, 1, 0, 0, 1])
        np.testing.assert_array_equal(target.labels, [1, 1, 1, 0])

    def test_source_median_imputation(self, tmp_path):
        write_uci_fixture(tmp_path)
        source, target = uci_prepare(tmp_path)
        # hungarian row 2 has trestbps '?'; source medians from observed
        # source values {145, 160, 130, 120} -> 137.5
        assert source.features[4, 3] == pytest.approx(137.5)
        # target fbs '?' imputed with the SOURCE median of {1,0,0,0} -> 0
        assert target.features[1, 5] == 0.0
        assert np.isfinite(source.features).all()
        assert np.isfinite(target.features).all()

    def test_missing_file_listed(self, tmp_path):
        write_uci_fixture(tmp_path)
        (tmp_path / "processed.va.data").unlink()
        with pytest.raises(FileNotFoundError, match="processed.va.data"):
            uci_prepare(tmp_path)

    def test_total_row_bound(self, tmp_path):
        write_uci_fixture(tmp_path)
        source, target = uci_prepare(tmp_path)
        assert len(source) + len(target) <= 920


class TestShippedBenchmarkHarmfulness:
    def test_rotation_default_certified_harmful(self):
        """A source-trained model must lose >= 0.15 accuracy on the
        shipped rotation benchmark's withheld-label target."""
        from conftest import small_gbt_config, small_mlp_config
        from shiftguard.learners import fit

        spec = ShiftTaskSpec(generator="boundary_rotation", n_source=600,
                             n_target=2000, seed=11)
        source, target, _ = synth_generate(spec, reveal_labels=True)
        train, val, holdout = partition(source, rng=rng_stream(1, 0))
        for config in (small_mlp_config(), small_gbt_config()):
            f = fit(config, train.features, train.labels, val.features,
                    val.labels, rng_stream(2, 0))
            src = np.mean(f.predict_labels(holdout.features) == holdout.labels)
            tgt = np.mean(f.predict_labels(target.features) == target.labels)
            assert src - tgt >= 0.15, config.kind
