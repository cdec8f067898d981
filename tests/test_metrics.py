"""Gaussian fitting, Frechet distance, and KL against independent oracles."""

import math

import numpy as np
import pytest

from ptqkit import metrics as met
from ptqkit import numeric_core as nc


def power_method_eigh(a: np.ndarray, iters: int = 20_000, tol: float = 1e-15):
    """Independent eigensolver oracle: power iteration with deflation.

    Deliberately shares no code with the package's Jacobi solver.  Each
    eigenvector iterates until no entry moves by more than ``tol`` in one
    step, or for ``iters`` steps at most.
    """
    a = np.array(a, dtype=np.float64)
    d = a.shape[0]
    # shift so all eigenvalues are positive and the dominant one is extremal
    shift = float(np.abs(a).sum()) + 1.0
    work = a + shift * np.eye(d)
    vals, vecs = [], []
    for k in range(d):
        v = np.ones(d) / math.sqrt(d)
        for i, prev in enumerate(vecs):  # re-orthogonalize the start vector
            v -= (v @ prev) * prev
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = work @ v
            for prev in vecs:
                w -= (w @ prev) * prev
            n = np.linalg.norm(w)
            if n == 0.0:
                break
            w /= n
            converged = np.max(np.abs(w - v)) <= tol
            v = w
            if converged:
                break
        lam = float(v @ work @ v)
        vals.append(lam - shift)
        vecs.append(v)
        work = work - lam * np.outer(v, v)
    return np.array(vals), np.column_stack(vecs)


def oracle_sqrtm(sigma: np.ndarray) -> np.ndarray:
    w, v = power_method_eigh(sigma)
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


def oracle_frechet(a: met.GaussianFit, b: met.GaussianFit) -> float:
    diff = a.mu - b.mu
    sa = oracle_sqrtm(a.sigma)
    inner = oracle_sqrtm(sa @ b.sigma @ sa)
    return float(diff @ diff + np.trace(a.sigma + b.sigma - 2.0 * inner))


def _random_fit(rng: nc.RngStream, d: int, n: int = 400) -> met.GaussianFit:
    base = rng.standard_normal(n * d).reshape(n, d)
    mix = rng.standard_normal(d * d).reshape(d, d)
    shift = rng.standard_normal(d)
    return met.fit_gaussian(base @ mix + shift)


class TestFitGaussian:
    def test_identical_rows_zero_covariance(self):
        fit = met.fit_gaussian(np.tile([2.0, -1.0], (5, 1)))
        assert np.array_equal(fit.sigma, np.zeros((2, 2)))

    def test_hand_computed_mean(self):
        fit = met.fit_gaussian(np.array([[0, 0], [2, 0], [0, 2], [2, 2]], dtype=float))
        assert np.array_equal(fit.mu, np.array([1.0, 1.0]))

    def test_standard_normal_covariance_near_identity(self):
        samples = nc.RngStream(17).standard_normal(200_000).reshape(100_000, 2)
        fit = met.fit_gaussian(samples)
        assert np.linalg.norm(fit.sigma - np.eye(2), "fro") < 0.02 * np.linalg.norm(np.eye(2), "fro")

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            met.fit_gaussian(np.array([[1.0, 2.0]]))


class TestJacobiEigh:
    def test_reconstruction_within_1e8(self):
        rng = nc.RngStream(23)
        for trial in range(10):
            m = rng.child(trial).standard_normal(25).reshape(5, 5)
            sigma = m @ m.T
            w, v = met.jacobi_eigh(sigma)
            assert np.linalg.norm(v @ np.diag(w) @ v.T - sigma, "fro") < 1e-8

    def test_eigenvalues_match_power_method_oracle(self):
        m = nc.RngStream(29).standard_normal(9).reshape(3, 3)
        sigma = m @ m.T
        w_pkg, _ = met.jacobi_eigh(sigma)
        w_oracle, _ = power_method_eigh(sigma)
        assert np.allclose(sorted(w_pkg), sorted(w_oracle), atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            met.jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSqrtm:
    def test_square_of_sqrt_recovers_input(self):
        m = nc.RngStream(31).standard_normal(16).reshape(4, 4)
        sigma = m @ m.T
        root = met.sqrtm_psd(sigma)
        assert np.allclose(root @ root, sigma, atol=1e-8)

    def test_negative_noise_eigenvalues_clamped(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, eigenvalue 0
        root = met.sqrtm_psd(sigma)
        assert np.all(np.isfinite(root))
        assert np.allclose(root @ root, sigma, atol=1e-8)


class TestFrechetDistance:
    def test_self_distance_zero(self):
        fit = _random_fit(nc.RngStream(37), 3)
        assert met.frechet_distance(fit, fit) <= 1e-9

    def test_one_dimensional_closed_form(self):
        rng = nc.RngStream(41)
        for trial in range(25):
            r = rng.child(trial)
            a = met.fit_gaussian((2.0 * r.standard_normal(300) + 1.5).reshape(-1, 1))
            b = met.fit_gaussian((0.7 * r.standard_normal(300) - 0.5).reshape(-1, 1))
            mu1, mu2 = float(a.mu[0]), float(b.mu[0])
            s1, s2 = math.sqrt(float(a.sigma[0, 0])), math.sqrt(float(b.sigma[0, 0]))
            closed = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
            assert met.frechet_distance(a, b) == pytest.approx(closed, abs=1e-9)

    def test_symmetry(self):
        rng = nc.RngStream(43)
        a, b = _random_fit(rng.child(0), 3), _random_fit(rng.child(1), 3)
        assert met.frechet_distance(a, b) == pytest.approx(met.frechet_distance(b, a), abs=1e-8)

    def test_3d_matches_independent_eigensolver_oracle(self):
        rng = nc.RngStream(47)
        for trial in range(10):
            a = _random_fit(rng.child(trial, 0), 3)
            b = _random_fit(rng.child(trial, 1), 3)
            assert met.frechet_distance(a, b) == pytest.approx(oracle_frechet(a, b), abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        rng = nc.RngStream(53)
        with pytest.raises(ValueError):
            met.frechet_distance(_random_fit(rng.child(0), 2), _random_fit(rng.child(1), 3))


class TestKlGaussian:
    def test_self_kl_zero(self):
        fit = _random_fit(nc.RngStream(59), 3)
        assert met.kl_gaussian(fit, fit) == pytest.approx(0.0, abs=1e-10)

    def test_one_dimensional_closed_form(self):
        mu_a, var_a = 1.0, 4.0
        mu_b, var_b = -0.5, 0.25
        a = met.GaussianFit(mu=np.array([mu_a]), sigma=np.array([[var_a]]), n=10)
        b = met.GaussianFit(mu=np.array([mu_b]), sigma=np.array([[var_b]]), n=10)
        closed = (
            math.log(math.sqrt(var_b) / math.sqrt(var_a))
            + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b)
            - 0.5
        )
        assert met.kl_gaussian(a, b) == pytest.approx(closed, abs=1e-9)

    def test_nonnegative_on_1000_random_pairs(self):
        rng = nc.RngStream(61)
        for trial in range(1000):
            a = _random_fit(rng.child(trial, 0), 2, n=50)
            b = _random_fit(rng.child(trial, 1), 2, n=50)
            assert met.kl_gaussian(a, b) >= -1e-10

    def test_singular_covariance_regularized_not_crashed(self):
        a = met.fit_gaussian(np.tile([1.0, 2.0], (5, 1)))  # zero covariance
        b = _random_fit(nc.RngStream(67), 2)
        assert math.isfinite(met.kl_gaussian(a, b))
        assert math.isfinite(met.kl_gaussian(b, a))
