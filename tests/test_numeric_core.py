"""Tensor kernels and the seeded random stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import numeric_core as nc
from ptqkit.errors import ShapeError


class TestTensor2d:
    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            nc.tensor2d([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            nc.tensor2d([[1.0, np.nan]])

    def test_coerces_lists(self):
        t = nc.tensor2d([[1, 2], [3, 4]])
        assert t.dtype == np.float64 and t.shape == (2, 2)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = nc.RngStream(42, 3).standard_normal(64)
        b = nc.RngStream(42, 3).standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = nc.RngStream(42, 0).standard_normal(64)
        b = nc.RngStream(42, 1).standard_normal(64)
        assert not np.array_equal(a, b)

    def test_child_streams_are_reproducible_and_independent(self):
        base = nc.RngStream(7)
        assert np.array_equal(base.child(1, 2).uniform(16), nc.RngStream(7).child(1, 2).uniform(16))
        assert not np.array_equal(base.child(1).uniform(16), base.child(2).uniform(16))

    def test_standard_normal_moments_100k(self):
        z = nc.RngStream(0, 9).standard_normal(100_000)
        assert -0.02 <= z.mean() <= 0.02
        assert 0.98 <= z.var() <= 1.02

    def test_uniform_support(self):
        u = nc.RngStream(3).uniform(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_integers_bounds(self):
        k = nc.RngStream(3).integers(2, 9, size=10_000)
        assert k.min() >= 2 and k.max() <= 8
        assert set(np.unique(k)) == set(range(2, 9))

    def test_categorical_frequencies(self):
        p = np.array([0.1, 0.2, 0.7])
        draws = nc.RngStream(5).categorical(p, 50_000)
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.max(np.abs(freq - p)) < 0.01

    def test_permutation_is_a_permutation(self):
        perm = nc.RngStream(1).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 40), k=st.integers(0, 17), seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_sequential_standard_normal_calls(self, n, k, seed):
        stream = nc.RngStream(seed, 4)
        blocks = stream.standard_normal_blocks(n, k)
        seq = nc.RngStream(seed, 4)
        # the frozen per-call Box-Muller draw over the documented PCG64 key
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 4])))
        assert blocks.shape == (n, k)
        for row in blocks:
            assert np.array_equal(row, seq.standard_normal(k))
            m = (k + 1) // 2
            r = np.sqrt(-2.0 * np.log(1.0 - gen.random(m)))
            u2 = gen.random(m)
            assert np.array_equal(row, np.concatenate([r * np.cos(2.0 * np.pi * u2),
                                                       r * np.sin(2.0 * np.pi * u2)])[:k])
        # all three end at the same stream position
        tail = gen.random(3)
        assert np.array_equal(stream.uniform(3), tail) and np.array_equal(seq.uniform(3), tail)


class TestGaussianSample:
    def test_shape(self):
        assert nc.gaussian_sample(nc.RngStream(0), 3, 5).shape == (3, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nc.gaussian_sample(nc.RngStream(0), 0, 5)


class TestMeanAndVariance:
    def test_constant_input(self):
        assert nc.mean_and_variance([5, 5, 5]) == (5.0, 0.0)

    def test_hand_computed_population_variance(self):
        mean, var = nc.mean_and_variance([1, 2, 3])
        assert mean == 2.0
        assert var == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_singleton(self):
        assert nc.mean_and_variance([0]) == (0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nc.mean_and_variance([])
