"""Calibration-set construction: the variance-aware sampler and baselines."""

import numpy as np
import pytest

from ptqkit import calibration as cal
from ptqkit import numeric_core as nc
from ptqkit import profiler as prof
from ptqkit.errors import DegenerateProfileError


class _StubModel:
    """Just enough surface for the cell-drawing code paths."""

    layer_names = ["layer0", "layer1", "layer2", "layer3"]
    data_dim = 2
    cond_embed_dim = 8


class _StubSched:
    T = 50


@pytest.fixture
def cells_only(monkeypatch):
    """Route _build_set to return the drawn cells instead of capturing."""
    monkeypatch.setattr(cal, "_build_set",
                        lambda model, sched, prompts, cells, rng, strategy, K, **kw: cells)
    return None


class TestDrawCells:
    def test_single_cell_profile_forces_all_draws(self):
        profile = prof.profile_from_variances({("a", 1): 2.0})
        cells, _, _ = cal.draw_cells(profile, 100, nc.RngStream(0))
        assert cells == [("a", 1)] * 100

    def test_frequencies_match_probabilities(self):
        profile = prof.profile_from_variances({("a", 1): 1.0, ("a", 2): 3.0})
        cells, _, _ = cal.draw_cells(profile, 100_000, nc.RngStream(1))
        freq = sum(1 for c in cells if c == ("a", 2)) / len(cells)
        assert abs(freq - 0.75) < 0.01
        assert abs((1.0 - freq) - 0.25) < 0.01

    def test_tau_above_max_variance_halves_until_eligible(self):
        profile = prof.profile_from_variances({("a", 1): 1e-6, ("a", 2): 2e-6})
        cells, tau_used, halvings = cal.draw_cells(profile, 10, nc.RngStream(2), tau_var=1.0)
        assert 0 < halvings <= cal.MAX_TAU_HALVINGS
        assert tau_used <= 2e-6
        assert len(cells) == 10

    def test_all_zero_variance_profile_exhausts_halvings(self):
        profile = prof.profile_from_variances({("a", 1): 0.0, ("a", 2): 0.0})
        with pytest.raises(DegenerateProfileError):
            cal.draw_cells(profile, 10, nc.RngStream(3), tau_var=1.0)

    def test_ineligible_cells_never_drawn(self):
        profile = prof.profile_from_variances({("a", 1): 10.0, ("a", 2): 0.1}, tau_fraction=0.5)
        cells, _, _ = cal.draw_cells(profile, 1000, nc.RngStream(4))
        assert all(c == ("a", 1) for c in cells)

    def test_k_must_be_positive(self):
        profile = prof.profile_from_variances({("a", 1): 1.0})
        with pytest.raises(ValueError):
            cal.draw_cells(profile, 0, nc.RngStream(0))

    def test_deterministic(self):
        profile = prof.profile_from_variances({("a", t): float(t) for t in range(1, 11)})
        a, _, _ = cal.draw_cells(profile, 500, nc.RngStream(5))
        b, _, _ = cal.draw_cells(profile, 500, nc.RngStream(5))
        assert a == b


class TestBaselineDistributions:
    def test_random_uniform_cell_frequencies(self, cells_only):
        # 4 layers x 50 timesteps = 200 cells at K = 200k: 0.5% +/- 0.1% each
        cells = cal.sample_random_uniform(_StubModel(), object(), 200_000, nc.RngStream(6),
                                          _StubSched())
        counts = {}
        for c in cells:
            counts[c] = counts.get(c, 0) + 1
        assert len(counts) == 200
        for n in counts.values():
            assert abs(n / 200_000 - 0.005) <= 0.001

    def test_normal_timestep_mean_near_half_T(self, cells_only):
        cells = cal.sample_normal_timestep(_StubModel(), object(), 100_000, nc.RngStream(7),
                                           _StubSched())
        ts = np.array([t for _, t in cells])
        assert abs(ts.mean() - 25.0) <= 1.0

    def test_normal_timestep_degenerate_sigma(self, cells_only):
        cells = cal.sample_normal_timestep(_StubModel(), object(), 500, nc.RngStream(8),
                                           _StubSched(), sigma_frac=0.0)
        assert all(t == 25 for _, t in cells)

    def test_normal_timestep_clipping(self, cells_only):
        cells = cal.sample_normal_timestep(_StubModel(), object(), 5000, nc.RngStream(9),
                                           _StubSched(), mu_frac=0.01)
        ts = [t for _, t in cells]
        assert min(ts) >= 1 and max(ts) <= 50

    def test_mu_frac_validated(self):
        with pytest.raises(ValueError):
            cal.sample_normal_timestep(_StubModel(), object(), 10, nc.RngStream(0),
                                       _StubSched(), mu_frac=1.5)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            cal.sample_random_uniform(_StubModel(), object(), 0, nc.RngStream(0), _StubSched())


class TestBuildAndSerialize:
    def _small_set(self, pipeline_cfg, trained, prompt_set, k=12):
        model, sched = trained
        profile = prof.load_profile(f"{pipeline_cfg.out_dir}/profile.tsv")
        return cal.sample_calibration_set(model, profile, prompt_set, k,
                                          nc.RngStream(31, 50), sched)

    def test_exactly_k_samples(self, pipeline_cfg, trained, prompt_set):
        cs = self._small_set(pipeline_cfg, trained, prompt_set, k=12)
        assert len(cs.samples) == 12
        assert cs.K == 12
        assert cs.strategy == "variance_aware"

    def test_activation_payload_shape(self, pipeline_cfg, trained, prompt_set):
        cs = self._small_set(pipeline_cfg, trained, prompt_set, k=4)
        for s in cs.samples:
            assert s.activation.ndim == 2
            assert s.activation.shape[0] == cal.CAPTURE_BATCH

    def test_every_prompt_contributes_round_robin(self, pipeline_cfg, trained, prompt_set):
        k = len(prompt_set.prompts) * 2
        cs = self._small_set(pipeline_cfg, trained, prompt_set, k=k)
        used = {s.prompt_id for s in cs.samples}
        assert used == {p.prompt_id for p in prompt_set.prompts}

    def test_deterministic_and_byte_identical_serialization(self, tmp_path, pipeline_cfg,
                                                            trained, prompt_set):
        a = self._small_set(pipeline_cfg, trained, prompt_set, k=6)
        b = self._small_set(pipeline_cfg, trained, prompt_set, k=6)
        assert cal.calibration_set_hash(a) == cal.calibration_set_hash(b)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        cal.save_calibration_set(a, pa)
        cal.save_calibration_set(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_json_round_trip_lossless(self, tmp_path, pipeline_cfg, trained, prompt_set):
        cs = self._small_set(pipeline_cfg, trained, prompt_set, k=6)
        path = tmp_path / "cs.json"
        cal.save_calibration_set(cs, path)
        loaded = cal.load_calibration_set(path)
        assert cal.calibration_set_hash(loaded) == cal.calibration_set_hash(cs)
        for s, t in zip(cs.samples, loaded.samples):
            assert np.array_equal(s.activation, t.activation)

    def test_unsupported_format_version_rejected(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            cal.load_calibration_set(path)

    def test_empty_prompt_set_rejected(self, trained):
        from ptqkit.coverage import PromptSet

        model, sched = trained
        profile = prof.profile_from_variances({("layer0", 1): 1.0})
        with pytest.raises(ValueError):
            cal.sample_calibration_set(model, profile, PromptSet(prompts=[]), 4,
                                       nc.RngStream(0), sched)

    def test_equal_k_across_strategies(self, pipeline_cfg, trained, prompt_set):
        model, sched = trained
        k = 9
        rng = nc.RngStream(33, 50)
        sets = [
            self._small_set(pipeline_cfg, trained, prompt_set, k=k),
            cal.sample_random_uniform(model, prompt_set, k, rng, sched),
            cal.sample_normal_timestep(model, prompt_set, k, rng, sched),
        ]
        assert [len(s.samples) for s in sets] == [k, k, k]

    def test_activations_for_layer_concatenates_flat(self, pipeline_cfg, trained, prompt_set):
        cs = self._small_set(pipeline_cfg, trained, prompt_set, k=8)
        for layer in {s.layer for s in cs.samples}:
            vals = cs.activations_for_layer(layer)
            n_cells = sum(1 for s in cs.samples if s.layer == layer)
            n_in = next(s.activation.shape[1] for s in cs.samples if s.layer == layer)
            assert vals.shape == (n_cells * cal.CAPTURE_BATCH * n_in,)
