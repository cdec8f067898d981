"""Per-cell activation statistics and variance profiles."""

import math

import numpy as np
import pytest

from test_diffusion import generate

from ptqkit import diffusion as dif
from ptqkit import numeric_core as nc
from ptqkit import profiler as prof
from ptqkit.errors import InsufficientDataError


def _gauss_sym_kl(m1, v1, m2, v2, eps=1e-12) -> float:
    v1 = max(v1, eps)
    v2 = max(v2, eps)
    kl12 = math.log(math.sqrt(v2 / v1)) + (v1 + (m1 - m2) ** 2) / (2.0 * v2) - 0.5
    kl21 = math.log(math.sqrt(v1 / v2)) + (v2 + (m2 - m1) ** 2) / (2.0 * v1) - 0.5
    return kl12 + kl21


def activation_divergence(profile_a, profile_b) -> dict:
    """Per-cell variance gaps plus the symmetric KL of each cell's Gaussian
    (mean, variance); both profiles must cover identical cells."""
    if profile_a.cells != profile_b.cells:
        raise ValueError("profiles cover different cells")
    report = {}
    for c in profile_a.cells:
        va, vb = profile_a.variances[c], profile_b.variances[c]
        abs_gap = abs(va - vb)
        rel_gap = abs_gap / max(va, vb, 1e-12)
        sym_kl = _gauss_sym_kl(profile_a.means[c], va, profile_b.means[c], vb)
        report[c] = {"abs_variance_gap": abs_gap, "rel_variance_gap": rel_gap, "sym_kl": sym_kl}
    return report


def _tap_with(values_by_cell):
    """A tap given one offer per cell, as the batched engine offers them."""
    tap = prof.ActivationTap()
    for (layer, t), values in values_by_cell.items():
        tap.offer(layer, t, np.asarray(values, dtype=np.float64))
    return tap


class TestActivationTap:
    def test_constant_stream_zero_variance(self):
        tap = _tap_with({("a", 1): [5.0] * 10})
        assert tap.variances[("a", 1)] == 0.0

    def test_streaming_matches_two_pass(self):
        xs = np.array([1, 2, 3, 4, 5], dtype=np.float64)
        tap = _tap_with({("a", 1): xs})
        two_pass = float(np.mean((xs - xs.mean()) ** 2))
        assert tap.variances[("a", 1)] == pytest.approx(two_pass, rel=1e-12)

    def test_one_offer_gives_population_moments(self):
        tap = _tap_with({("a", 1): [[1.0, 2.0], [4.0, 9.0]]})  # rows x width, ravelled
        assert tap.counts[("a", 1)] == 4
        assert tap.means[("a", 1)] == 4.0
        assert tap.variances[("a", 1)] == (9.0 + 4.0 + 0.0 + 25.0) / 4

    def test_repeated_offer_rejected(self):
        tap = _tap_with({("a", 1): [1.0, 2.0]})
        tap.offer("a", 2, [1.0, 2.0])  # another timestep is another cell
        with pytest.raises(ValueError, match="offered twice"):
            tap.offer("a", 1, [3.0, 4.0])

    def test_offer_of_fewer_than_two_values_rejected(self):
        tap = prof.ActivationTap()
        for values in ([], [7.0]):
            with pytest.raises(InsufficientDataError):
                tap.offer("a", 1, values)
        assert tap.counts == {}

    def test_cells_keyed_by_layer_and_timestep(self):
        tap = _tap_with({("b", 1): [5.0, 6.0], ("a", 2): [3.0, 4.0], ("a", 1): [1.0, 2.0]})
        assert prof.build_profile(tap).cells == [("a", 1), ("a", 2), ("b", 1)]


class TestBuildProfile:
    def test_two_cells_forced_probabilities(self):
        profile = prof.profile_from_variances({("a", 1): 1.0, ("a", 2): 3.0})
        assert profile.probabilities[("a", 1)] == pytest.approx(0.25)
        assert profile.probabilities[("a", 2)] == pytest.approx(0.75)

    def test_equal_variances_uniform(self):
        cells = {("a", t): 2.0 for t in range(1, 6)}
        profile = prof.profile_from_variances(cells)
        for c in profile.cells:
            assert profile.probabilities[c] == pytest.approx(0.2)

    def test_tau_var_arithmetic(self):
        profile = prof.profile_from_variances({("a", 1): 40.0, ("a", 2): 1.0}, tau_fraction=0.1)
        assert profile.tau_var == pytest.approx(4.0)

    def test_probabilities_sum_to_one(self):
        rng = nc.RngStream(23)
        variances = {("l", t): float(v) for t, v in enumerate(rng.uniform(50), start=1)}
        profile = prof.profile_from_variances(variances)
        assert sum(profile.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in profile.probabilities.values())

    def test_probabilities_equal_normalized_variances(self):
        variances = {("l", t): float(t) for t in range(1, 9)}
        profile = prof.profile_from_variances(variances)
        total = sum(variances.values())
        for c in profile.cells:
            assert profile.probabilities[c] == pytest.approx(variances[c] / total, abs=1e-12)

    def test_all_zero_variances_uniform_fallback(self):
        profile = prof.profile_from_variances({("a", 1): 0.0, ("a", 2): 0.0})
        assert profile.probabilities[("a", 1)] == pytest.approx(0.5)
        assert profile.tau_var == 0.0

    def test_undersampled_cell_rejected(self):
        with pytest.raises(InsufficientDataError, match="count 1 < 2"):
            _tap_with({("a", 1): [7.0]})  # single observation

    def test_empty_tap_rejected(self):
        with pytest.raises(InsufficientDataError):
            prof.build_profile(prof.ActivationTap())

    def test_build_from_tap_carries_counts_and_means(self):
        tap = _tap_with({("a", 1): [1.0, 2.0, 3.0], ("a", 2): [4.0, 5.0]})
        profile = prof.build_profile(tap)
        assert profile.counts == {("a", 1): 3, ("a", 2): 2}
        assert profile.means == {("a", 1): 2.0, ("a", 2): 4.5}


class TestProfileIO:
    def test_tsv_round_trip_exact(self, tmp_path):
        rng = nc.RngStream(29)
        variances = {("layer0", t): float(v) + 1e-6 for t, v in enumerate(rng.uniform(20), 1)}
        profile = prof.profile_from_variances(variances, tau_fraction=0.25)
        path = tmp_path / "profile.tsv"
        prof.export_profile(profile, path)
        loaded = prof.load_profile(path, 0.25)
        assert loaded.cells == profile.cells
        assert loaded.tau_fraction == profile.tau_fraction
        for c in profile.cells:
            assert loaded.variances[c] == profile.variances[c]  # repr round trip is exact
            assert loaded.probabilities[c] == pytest.approx(profile.probabilities[c], abs=1e-15)

    def test_loads_file_with_sigma_hat_column(self, tmp_path):
        # profile.tsv files from earlier versions carry a sigma_hat column before p
        path = tmp_path / "profile.tsv"
        path.write_text("# tau_fraction=0.25\ttau_var=0.75\n"
                        "layer\ttimestep\tcount\tmean\tvariance\tsigma_hat\tp\n"
                        "layer0\t1\t4\t0.5\t1.0\t0.25\t0.25\n"
                        "layer0\t2\t4\t-0.5\t3.0\t0.75\t0.75\n")
        loaded = prof.load_profile(path, 0.25)
        assert loaded.cells == [("layer0", 1), ("layer0", 2)]
        assert loaded.counts == {("layer0", 1): 4, ("layer0", 2): 4}
        assert loaded.means == {("layer0", 1): 0.5, ("layer0", 2): -0.5}
        assert loaded.probabilities == {("layer0", 1): 0.25, ("layer0", 2): 0.75}
        assert loaded.tau_fraction == 0.25 and loaded.tau_var == 0.75

    def test_load_floors_at_the_callers_tau_fraction(self, tmp_path):
        # the floor follows the caller, not the tau_fraction the file was written with
        profile = prof.profile_from_variances({("layer0", 1): 1.0, ("layer0", 2): 4.0},
                                              tau_fraction=0.1)
        path = tmp_path / "profile.tsv"
        prof.export_profile(profile, path)
        loaded = prof.load_profile(path, 0.5)
        assert (loaded.tau_fraction, loaded.tau_var) == (0.5, 2.0)
        assert loaded.content_hash() == profile.content_hash()

    def test_content_hash_tracks_variances(self):
        a = prof.profile_from_variances({("l", 1): 1.0, ("l", 2): 2.0})
        b = prof.profile_from_variances({("l", 1): 1.0, ("l", 2): 2.5})
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == prof.profile_from_variances(dict(a.variances)).content_hash()


class TestActivationDivergence:
    def test_profile_vs_itself_zero_gaps(self):
        tap = _tap_with({("a", 1): nc.RngStream(3).uniform(100),
                         ("a", 2): nc.RngStream(4).uniform(100)})
        profile = prof.build_profile(tap)
        report = activation_divergence(profile, profile)
        for cell_report in report.values():
            assert cell_report["abs_variance_gap"] == 0.0
            assert cell_report["sym_kl"] == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_cells_rejected(self):
        a = prof.profile_from_variances({("a", 1): 1.0})
        b = prof.profile_from_variances({("b", 1): 1.0})
        with pytest.raises(ValueError):
            activation_divergence(a, b)

    def test_two_prompts_diverge_in_at_least_one_cell(self, trained, prompt_set, pipeline_cfg):
        # prompts driving different mixture modes must leave a variance footprint
        model, sched = trained

        def profile_for(prompt):
            tap = prof.ActivationTap()
            c = dif.condition_embedding(prompt.text, prompt.bits, model.cond_embed_dim)
            generate(model, c, sched, 4, nc.RngStream(0, 41), tap=tap)
            return prof.build_profile(tap)

        pa = profile_for(prompt_set.prompts[0])
        pb = profile_for(prompt_set.prompts[1])
        report = activation_divergence(pa, pb)
        assert max(r["rel_variance_gap"] for r in report.values()) > 0.10
