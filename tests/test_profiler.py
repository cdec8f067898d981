"""Streaming activation statistics and variance profiles."""

import math

import numpy as np
import pytest

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
    """Per-cell variance gaps plus symmetric KL of Gaussian reservoir fits.

    Both profiles must cover identical cells and carry reservoir samples
    (profiles parsed back from disk do not).
    """
    if profile_a.cells != profile_b.cells:
        raise ValueError("profiles cover different cells")
    report = {}
    for c in profile_a.cells:
        va, vb = profile_a.variances[c], profile_b.variances[c]
        abs_gap = abs(va - vb)
        rel_gap = abs_gap / max(va, vb, 1e-12)
        ra = profile_a.reservoirs.get(c)
        rb = profile_b.reservoirs.get(c)
        if ra is not None and rb is not None and ra.size >= 2 and rb.size >= 2:
            ma, va_r = nc.mean_and_variance(ra)
            mb, vb_r = nc.mean_and_variance(rb)
            sym_kl = _gauss_sym_kl(ma, va_r, mb, vb_r)
        else:
            sym_kl = _gauss_sym_kl(profile_a.means[c], va, profile_b.means[c], vb)
        report[c] = {"abs_variance_gap": abs_gap, "rel_variance_gap": rel_gap, "sym_kl": sym_kl}
    return report


def _tap_with(values_by_cell, reservoir_size=64):
    layers = {layer for layer, _ in values_by_cell}
    tap = prof.ActivationTap(layers, reservoir_size=reservoir_size, rng=nc.RngStream(0, 1))
    for (layer, t), chunks in values_by_cell.items():
        for chunk in chunks:
            tap.record(layer, t, np.asarray(chunk, dtype=np.float64))
    return tap


class TestActivationTap:
    def test_constant_stream_zero_variance(self):
        tap = _tap_with({("a", 1): [[5.0]] * 10})
        assert tap.cell_stats("a", 1).variance == 0.0

    def test_streaming_matches_two_pass(self):
        tap = _tap_with({("a", 1): [[1, 2, 3], [4, 5]]})
        xs = np.array([1, 2, 3, 4, 5], dtype=np.float64)
        two_pass = float(np.mean((xs - xs.mean()) ** 2))
        assert tap.cell_stats("a", 1).variance == pytest.approx(two_pass, rel=1e-12)

    def test_streaming_matches_two_pass_on_random_chunked_stream(self):
        rng = nc.RngStream(19)
        values = 3.0 * rng.standard_normal(5000) + 1.0
        # replay in irregular chunks
        tap = prof.ActivationTap({"a"}, rng=nc.RngStream(0, 1))
        i = 0
        k = 0
        while i < values.size:
            step = int(rng.child(9, k).integers(1, 97)[0])
            tap.record("a", 1, values[i : i + step])
            i += step
            k += 1
        mean, var = nc.mean_and_variance(values)
        cs = tap.cell_stats("a", 1)
        assert cs.mean == pytest.approx(mean, rel=1e-9)
        assert cs.variance == pytest.approx(var, rel=1e-9)

    def test_reservoir_never_exceeds_capacity(self):
        tap = _tap_with({("a", 1): [nc.RngStream(2).uniform(10_000)]}, reservoir_size=8)
        assert tap.cell_stats("a", 1).reservoir_values().size == 8

    def test_unmonitored_layers_ignored(self):
        tap = prof.ActivationTap({"a"}, rng=nc.RngStream(0, 1))
        tap.offer("b", 1, np.array([1.0, 2.0]))
        assert tap.cells() == []
        assert tap.offer_count == 1

    def test_cells_keyed_by_layer_and_timestep(self):
        tap = _tap_with({("a", 1): [[1.0, 2.0]], ("a", 2): [[3.0, 4.0]], ("b", 1): [[5.0, 6.0]]})
        assert tap.cells() == [("a", 1), ("a", 2), ("b", 1)]


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
        tap = _tap_with({("a", 1): [[7.0]]})  # single observation
        with pytest.raises(InsufficientDataError):
            prof.build_profile(tap)

    def test_empty_tap_rejected(self):
        tap = prof.ActivationTap({"a"}, rng=nc.RngStream(0, 1))
        with pytest.raises(InsufficientDataError):
            prof.build_profile(tap)

    def test_build_from_tap_carries_counts_and_reservoirs(self):
        tap = _tap_with({("a", 1): [[1.0, 2.0, 3.0]], ("a", 2): [[4.0, 5.0]]})
        profile = prof.build_profile(tap)
        assert profile.counts[("a", 1)] == 3
        assert profile.reservoirs[("a", 1)].size == 3


class TestProfileIO:
    def test_tsv_round_trip_exact(self, tmp_path):
        rng = nc.RngStream(29)
        variances = {("layer0", t): float(v) + 1e-6 for t, v in enumerate(rng.uniform(20), 1)}
        profile = prof.profile_from_variances(variances, tau_fraction=0.25)
        path = tmp_path / "profile.tsv"
        prof.export_profile(profile, path)
        loaded = prof.load_profile(path)
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
        loaded = prof.load_profile(path)
        assert loaded.cells == [("layer0", 1), ("layer0", 2)]
        assert loaded.counts == {("layer0", 1): 4, ("layer0", 2): 4}
        assert loaded.means == {("layer0", 1): 0.5, ("layer0", 2): -0.5}
        assert loaded.probabilities == {("layer0", 1): 0.25, ("layer0", 2): 0.75}
        assert loaded.tau_fraction == 0.25 and loaded.tau_var == 0.75

    def test_content_hash_tracks_variances(self):
        a = prof.profile_from_variances({("l", 1): 1.0, ("l", 2): 2.0})
        b = prof.profile_from_variances({("l", 1): 1.0, ("l", 2): 2.5})
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == prof.profile_from_variances(dict(a.variances)).content_hash()


class TestActivationDivergence:
    def test_profile_vs_itself_zero_gaps(self):
        tap = _tap_with({("a", 1): [nc.RngStream(3).uniform(100)],
                         ("a", 2): [nc.RngStream(4).uniform(100)]})
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
            tap = prof.ActivationTap(model.layer_names, reservoir_size=64,
                                     rng=nc.RngStream(0, 40))
            c = dif.condition_embedding(prompt.text, prompt.bits, model.cond_embed_dim)
            dif.generate(model, c, sched, 4, nc.RngStream(0, 41), tap=tap)
            return prof.build_profile(tap)

        pa = profile_for(prompt_set.prompts[0])
        pb = profile_for(prompt_set.prompts[1])
        report = activation_divergence(pa, pb)
        assert max(r["rel_variance_gap"] for r in report.values()) > 0.10
