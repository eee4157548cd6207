import copy
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import log_sum_exp, softmax
from shiftguard.numerics import (
    _GOLDEN,
    RngStream,
    _mix64_int,
    _permutation_rows,
    _raw_rows,
    _uniform_rows,
    rng_stream,
)


class TestLogSumExp:
    def test_symmetric_pair(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("x", [-1000.0, -3.5, 0.0, 7.25, 1000.0])
    def test_single_entry_identity(self, x):
        assert log_sum_exp([x]) == x

    def test_huge_logits_no_overflow(self):
        # extended-precision oracle
        expected = float(mpmath.log(mpmath.exp(1000) + mpmath.exp(1000)))
        got = log_sum_exp([1000.0, 1000.0])
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1000.0 + math.log(2.0), rel=1e-14)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            log_sum_exp([])

    def test_exp_identity_moderate_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            l = rng.uniform(-30, 30, size=rng.integers(1, 12))
            assert math.exp(log_sum_exp(l)) == pytest.approx(
                float(np.exp(l).sum()), rel=1e-12)


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax([0.0] * 4), [0.25] * 4, atol=1e-15)
        np.testing.assert_allclose(softmax([7.3] * 5), [0.2] * 5, atol=1e-15)

    def test_hand_normalization(self):
        got = softmax([math.log(1), math.log(2), math.log(3)])
        np.testing.assert_allclose(got, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)

    def test_probvector_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = softmax(rng.normal(size=rng.integers(1, 9)) * 10)
            assert np.all(p >= 0) and np.all(p <= 1)
            assert float(p.sum()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, logits, c):
        a = softmax(logits)
        b = softmax(np.asarray(logits) + c)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            softmax([])


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = rng_stream(1234, 7).uniform(1000)
        b = rng_stream(1234, 7).uniform(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_stream(99, 0).uniform(100)
        b = rng_stream(99, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_full_sample_is_permutation(self):
        r = rng_stream(5, 3)
        got = np.sort(r.sample_without_replacement(257, 257))
        np.testing.assert_array_equal(got, np.arange(257))

    def test_sample_without_replacement_distinct(self):
        r = rng_stream(0, 0)
        s = r.sample_without_replacement(50, 20)
        assert len(set(s.tolist())) == 20
        assert s.min() >= 0 and s.max() < 50

    def test_uniform_range_and_moments(self):
        u = rng_stream(42, 0).uniform(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_normal_moments(self):
        z = rng_stream(42, 1).normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_integers_bounds(self):
        r = rng_stream(7, 0)
        v = r.integers(13, 10_000)
        assert v.min() >= 0 and v.max() <= 12
        assert len(np.unique(v)) == 13

    def test_split_reproducible_and_distinct(self):
        root = rng_stream(11, 0)
        c1 = root.split(0)
        c2 = root.split(1)
        again = rng_stream(11, 0).split(0)
        np.testing.assert_array_equal(c1.uniform(64), again.uniform(64))
        assert not np.array_equal(
            rng_stream(11, 0).split(0).uniform(64), c2.uniform(64))

    def test_split_does_not_consume_parent(self):
        a = rng_stream(3, 0)
        b = rng_stream(3, 0)
        a.split(5)
        np.testing.assert_array_equal(a.uniform(16), b.uniform(16))

    def test_byte_identical_across_instantiations(self):
        # stands in for process restarts: the stream is a pure function of
        # (base_seed, stream_id, counter)
        one = RngStream(2 ** 63 + 17, 2 ** 40).uniform(512).tobytes()
        two = RngStream(2 ** 63 + 17, 2 ** 40).uniform(512).tobytes()
        assert one == two


def _streams_at_unequal_counters():
    """Four streams, one with an extreme seed, each advanced by its own
    number of draws."""
    streams = [RngStream(5, 0), RngStream(5, 1).split(3),
               RngStream(2 ** 63 + 17, 2 ** 40), RngStream(0, 0)]
    for advance, s in zip((0, 1, 77, 1000), streams):
        s.uniform(advance)
    return streams


class TestMultiStreamDraws:
    """``_raw_rows`` and the uniform and permutation rows built on it draw
    from several streams at once, each row as its stream alone would."""

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_rows_equal_each_streams_own_draws(self, n):
        streams = _streams_at_unequal_counters()
        twins = [copy.copy(s) for s in streams]
        counters = [s._counter for s in streams]
        rows = _raw_rows(streams, n)
        assert rows.shape == (len(streams), n) and rows.dtype == np.uint64
        for row, twin, start in zip(rows, twins, counters):
            assert row.tobytes() == twin._raw(n).tobytes()
            # SplitMix64 on Python ints: the i-th draw is
            # mix64(key + i * golden) mod 2**64
            expect = [_mix64_int(twin._key + (start + i) * _GOLDEN)
                      for i in range(n)]
            assert row.tolist() == expect
        assert [s._counter for s in streams] == [c + n for c in counters]
        assert [s._counter for s in streams] == [t._counter for t in twins]

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_uniform_and_permutation_rows(self, n):
        streams = _streams_at_unequal_counters()
        twins = [copy.copy(s) for s in streams]
        uniform = _uniform_rows(streams, n)
        perms = _permutation_rows(streams, n)
        for u, p, twin in zip(uniform, perms, twins):
            assert u.tobytes() == twin.uniform(n).tobytes()
            assert p.tobytes() == twin.permutation(n).tobytes()
        assert [s._counter for s in streams] == [t._counter for t in twins]


def _draw_script_sha256(base_seed, stream_id) -> str:
    """sha256 of the bytes of a fixed script touching every draw method,
    odd and shaped sizes, and two split children."""
    r = RngStream(base_seed, stream_id)
    draws = [
        r.uniform(), r.uniform(7), r.uniform((3, 5)),
        r.normal(9), r.normal((2, 3)),
        r.integers(10, 100), r.permutation(1000),
        r.sample_without_replacement(50, 7),
        r.split(0).uniform(4), r.split(3).normal(5),
    ]
    h = hashlib.sha256()
    for d in draws:
        h.update(np.asarray(d).tobytes())
    return h.hexdigest()


# the byte stream the RngStream docstring promises across processes
RNG_SCRIPT_SHA256 = {
    (0, 0):
        "5c2c075789a79dab9b09d50a8b93b5befe37a0a8d4e36a4e3f9ad0179ce1fcf7",
    (12345, 7):
        "40abca5c23c2f0e3de740f912d319f56523bd3d1272dc321f8e9da594996cd32",
    (2 ** 63 + 17, 2 ** 40):
        "37a0a51d5739c13fb9e124f04141d62764d084e6662cc0fb9374ce31b48d00e2",
}


@pytest.mark.parametrize("seed", list(RNG_SCRIPT_SHA256),
                         ids=["0-0", "12345-7", "2e63+17-2e40"])
def test_rng_stream_stored_digest(seed):
    assert _draw_script_sha256(*seed) == RNG_SCRIPT_SHA256[seed]

