"""The toy conditional DDPM: schedules, diffusion steps, training, generation.

The helpers ``generate``, ``forward_noised`` and ``training_loss`` are
shared with other test modules.
"""

import math

import numpy as np
import pytest

from ptqkit import diffusion as dif
from ptqkit import numeric_core as nc
from ptqkit.errors import ShapeError, TrainingDivergenceError


def _cond(text="steady rain on a tin roof", dim=8):
    return dif.condition_embedding(text, (1, 0, 1), dim)


def _zero_predictor(data_dim=2, time_dim=8, cond_dim=8):
    """A model whose epsilon prediction is identically zero."""
    in_dim = data_dim + time_dim + cond_dim
    layer = dif.AffineLayer("layer0", np.zeros((in_dim, data_dim)), np.zeros(data_dim),
                            activation="none")
    return dif.DenoiserModel([layer], time_dim, cond_dim, data_dim)


def generate(model, cond, sched, n, rng, tap=None):
    """n reverse chains of one condition on the batched engine; chain i draws from rng.child(i)."""
    noise = dif.chain_noise([rng.child(i) for i in range(n)], sched.T, model.data_dim)
    return dif.reverse_chains(model, sched, np.tile(cond, (n, 1)), noise, tap=tap)


def forward_noised(x0, t, sched, rng):
    """x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps as a training batch builds it, eps from rng."""
    model = _zero_predictor(data_dim=x0.shape[1])
    eps = rng.standard_normal(x0.size).reshape(x0.shape)
    u, _ = dif.training_batch(model, x0, np.zeros((len(x0), model.cond_embed_dim)), sched,
                              np.full(len(x0), t), eps)
    return u[:, :x0.shape[1]]


def training_loss(model, u, eps) -> float:
    """The epsilon-prediction MSE alone: the finite-difference oracle of the gradients."""
    return float(np.mean((model.forward(u) - eps) ** 2))


class TestNoiseSchedule:
    def test_linear_beta_strictly_decreasing_in_unit_interval(self):
        s = dif.NoiseSchedule.linear_beta(50)
        assert s.T == 50
        assert np.all(s.alpha_bar > 0.0) and np.all(s.alpha_bar < 1.0)
        assert np.all(np.diff(s.alpha_bar) < 0.0)

    def test_cosine_schedule_valid(self):
        s = dif.NoiseSchedule.cosine(50)
        assert np.all(s.alpha_bar > 0.0) and np.all(s.alpha_bar < 1.0)
        assert np.all(np.diff(s.alpha_bar) < 0.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            dif.NoiseSchedule([0.9, 0.95, 0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dif.NoiseSchedule([1.0, 0.5])
        with pytest.raises(ValueError):
            dif.NoiseSchedule([0.5, 0.0])


class TestEmbeddings:
    def test_condition_embedding_deterministic_unit_norm(self):
        a = dif.condition_embedding("rain", (1, 0), 8)
        b = dif.condition_embedding("rain", (1, 0), 8)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_different_text_different_embedding(self):
        a = dif.condition_embedding("rain", (1, 0), 8)
        b = dif.condition_embedding("thunder", (1, 0), 8)
        assert not np.array_equal(a, b)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            dif.condition_embedding("  ", (1,), 8)

    def test_time_embedding_shape_and_range(self):
        e = dif.time_embedding(25, 8, 50)
        assert e.shape == (8,)
        assert np.all(np.abs(e) <= 1.0)


class TestForwardDiffuse:
    def test_zero_noise_limit_returns_x0(self):
        sched = dif.NoiseSchedule([1.0 - 1e-12, 0.5])
        x0 = np.array([[1.5, -2.0]])
        out = forward_noised(x0, 1, sched, nc.RngStream(0))
        assert np.allclose(out, x0, atol=1e-5)

    def test_marginal_variance_within_2pct_at_100k(self):
        sched = dif.NoiseSchedule.linear_beta(50)
        t = 20
        x0 = np.zeros((50_000, 2))
        out = forward_noised(x0, t, sched, nc.RngStream(13))
        expected = 1.0 - sched.alpha_bar[t - 1]
        assert abs(out.var() - expected) <= 0.02 * expected

    def test_deterministic_for_fixed_seed(self):
        sched = dif.NoiseSchedule.linear_beta(10)
        x0 = np.ones((3, 2))
        a = forward_noised(x0, 5, sched, nc.RngStream(2))
        b = forward_noised(x0, 5, sched, nc.RngStream(2))
        assert np.array_equal(a, b)


class TestDenoiseStep:
    def test_zero_prediction_final_step_closed_form(self):
        sched = dif.NoiseSchedule.linear_beta(10)
        model = _zero_predictor()
        x = np.array([[0.8, -0.3]])
        state = dif.LatentState(t=1, value=x)
        out = dif.denoise_step(model, state, _cond(), sched, None)
        # with eps_hat = 0 and t = 1: x_prev = x / sqrt(alpha_1), alpha_1 = alpha_bar[0]
        assert np.allclose(out.value, x / math.sqrt(sched.alpha_bar[0]), atol=1e-12)
        assert out.t == 0

    def test_intermediate_step_mean_matches_formula(self):
        sched = dif.NoiseSchedule.linear_beta(10)
        model = _zero_predictor()
        x = np.array([[1.0, 2.0]])
        t = 5
        z = nc.RngStream(3).standard_normal(2).reshape(1, 2)
        out = dif.denoise_step(model, dif.LatentState(t=t, value=x), _cond(), sched, z)
        ab_t, ab_prev = sched.alpha_bar[t - 1], sched.alpha_bar[t - 2]
        alpha_t = ab_t / ab_prev
        beta_t = 1.0 - alpha_t
        var = beta_t * (1.0 - ab_prev) / (1.0 - ab_t)
        expected = x / math.sqrt(alpha_t) + math.sqrt(var) * z
        assert np.allclose(out.value, expected, atol=1e-12)

    def test_t0_rejected(self):
        sched = dif.NoiseSchedule.linear_beta(10)
        with pytest.raises(ValueError):
            dif.denoise_step(_zero_predictor(), dif.LatentState(t=0, value=np.ones((1, 2))),
                             _cond(), sched, None)

    def test_t_above_schedule_rejected(self):
        sched = dif.NoiseSchedule.linear_beta(10)
        with pytest.raises(ValueError):
            dif.denoise_step(_zero_predictor(), dif.LatentState(t=11, value=np.ones((1, 2))),
                             _cond(), sched, np.zeros((1, 2)))


class TestGenerate:
    def test_zero_chains_empty_output_tap_untouched(self):
        sched = dif.NoiseSchedule.linear_beta(5)

        class Tap:
            hits = 0

            def offer(self, layer, t, values):
                self.hits += 1

        tap = Tap()
        out = generate(_zero_predictor(), _cond(), sched, 0, nc.RngStream(0), tap=tap)
        assert out.shape == (0, 2)
        assert tap.hits == 0

    def test_deterministic(self):
        sched = dif.NoiseSchedule.linear_beta(5)
        model = _zero_predictor()
        a = generate(model, _cond(), sched, 4, nc.RngStream(9))
        b = generate(model, _cond(), sched, 4, nc.RngStream(9))
        assert np.array_equal(a, b)

    def test_tap_rows_per_layer_and_timestep_equal_chains(self, trained, prompt_set):
        # every (layer, t) cell is offered once, with one row per chain
        model, sched = trained

        class Tap:
            def __init__(self):
                self.rows = {}

            def offer(self, layer, t, values):
                self.rows[(layer, t)] = self.rows.get((layer, t), 0) + values.shape[0]

        tap = Tap()
        n = 3
        p = prompt_set.prompts[0]
        c = dif.condition_embedding(p.text, p.bits, model.cond_embed_dim)
        generate(model, c, sched, n, nc.RngStream(1), tap=tap)
        assert tap.rows == {(name, t): n for name in model.layer_names
                            for t in range(1, sched.T + 1)}

    def test_trained_model_hits_mixture_modes(self, trained, prompt_set, pipeline_cfg):
        # >= 95% of 1000 generated points within 3 sigma of a mixture mode
        model, sched = trained
        per = 1000 // len(prompt_set.prompts) + 1
        hits = total = 0
        for i, p in enumerate(prompt_set.prompts):
            c = dif.condition_embedding(p.text, p.bits, model.cond_embed_dim)
            modes = dif.mixture_modes(c, pipeline_cfg.data_dim)
            pts = generate(model, c, sched, per, nc.RngStream(202).child(i))
            d = np.min(np.linalg.norm(pts[:, None, :] - modes[None], axis=2), axis=1)
            hits += int(np.sum(d <= 3.0))  # dataset noise_std is 1.0
            total += per
        assert total >= 1000
        assert hits / total >= 0.95


class TestTraining:
    @staticmethod
    def _small_problem():
        rng = nc.RngStream(55)
        conds = [_cond("low hum"), _cond("sharp click")]
        data, row_conds = dif.make_mixture_dataset(conds, 64, rng.child(0))
        sched = dif.NoiseSchedule.linear_beta(10)
        model = dif.DenoiserModel.create(2, (16,), 8, 8, rng=rng.child(1))
        return model, data, row_conds, sched

    def test_zero_epochs_is_identity(self):
        model, data, conds, sched = self._small_problem()
        result = dif.train(model, data, conds, sched, dif.TrainConfig(epochs=0), nc.RngStream(0))
        for before, after in zip(model.layers, result.model.layers):
            assert np.array_equal(before.weight, after.weight)
            assert np.array_equal(before.bias, after.bias)

    def test_loss_improves_on_smoothed_trace(self):
        model, data, conds, sched = self._small_problem()
        hyper = dif.TrainConfig(learning_rate=0.02, epochs=200, batch_size=64)
        result = dif.train(model, data, conds, sched, hyper, nc.RngStream(1))
        head = float(np.mean(result.losses[:5]))
        tail = float(np.mean(result.losses[-5:]))
        assert tail < head

    def test_gradients_match_central_finite_differences(self):
        # every parameter of a 2-layer model, relative error < 1e-4
        rng = nc.RngStream(77)
        model = dif.DenoiserModel.create(2, (6,), 4, 4, rng=rng.child(0))
        assert len(model.layers) == 2
        u = rng.child(1).standard_normal(5 * 10).reshape(5, 10)
        eps = rng.child(2).standard_normal(5 * 2).reshape(5, 2)
        _, grads = dif._loss_and_grads(model, u, eps)
        h = 1e-5
        for lyr, (gw, gb) in zip(model.layers, grads):
            for arr, grad in ((lyr.weight, gw), (lyr.bias, gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = training_loss(model, u, eps)
                    arr[idx] = orig - h
                    down = training_loss(model, u, eps)
                    arr[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    denom = max(abs(fd), abs(float(grad[idx])), 1e-8)
                    assert abs(fd - float(grad[idx])) / denom < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        model, data, conds, sched = self._small_problem()
        hyper = dif.TrainConfig(learning_rate=1e12, epochs=50, batch_size=64)
        with pytest.raises(TrainingDivergenceError):
            dif.train(model, data, conds, sched, hyper, nc.RngStream(2))

    def test_dataset_smaller_than_batch_rejected(self):
        model, data, conds, sched = self._small_problem()
        with pytest.raises(ValueError):
            dif.train(model, data[:8], conds[:8], sched, dif.TrainConfig(batch_size=64),
                      nc.RngStream(0))

    def test_training_deterministic(self):
        model, data, conds, sched = self._small_problem()
        hyper = dif.TrainConfig(learning_rate=0.02, epochs=3, batch_size=64)
        a = dif.train(model, data, conds, sched, hyper, nc.RngStream(4))
        b = dif.train(model, data, conds, sched, hyper, nc.RngStream(4))
        assert a.losses == b.losses
        for la, lb in zip(a.model.layers, b.model.layers):
            assert np.array_equal(la.weight, lb.weight)


class TestMixtureDataset:
    def test_modes_are_antipodal_at_radius(self):
        modes = dif.mixture_modes(_cond(), data_dim=2, mode_radius=3.0)
        assert np.allclose(modes[0], -modes[1])
        assert np.linalg.norm(modes[0]) == pytest.approx(3.0)

    def test_dataset_clusters_at_the_declared_modes(self):
        cond = _cond("birds chirping at dawn")
        data, row_conds = dif.make_mixture_dataset([cond], 2000, nc.RngStream(6))
        modes = dif.mixture_modes(cond)
        d = np.min(np.linalg.norm(data[:, None, :] - modes[None], axis=2), axis=1)
        assert np.mean(d <= 3.0) > 0.98  # 3 sigma with noise_std = 1
        assert len(row_conds) == 2000

    def test_different_conditions_different_modes(self):
        m1 = dif.mixture_modes(dif.condition_embedding("alarm", (1, 0, 0, 0), 8))
        m2 = dif.mixture_modes(dif.condition_embedding("violin melody", (0, 1, 0, 0), 8))
        assert not np.allclose(m1, m2)

    def test_empty_condition_list_rejected(self):
        with pytest.raises(ValueError):
            dif.make_mixture_dataset([], 4, nc.RngStream(0))


class TestModelStructure:
    def test_layers_must_chain(self):
        bad = [
            dif.AffineLayer("a", np.zeros((18, 7)), np.zeros(7)),
            dif.AffineLayer("b", np.zeros((6, 2)), np.zeros(2), activation="none"),
        ]
        with pytest.raises(ShapeError):
            dif.DenoiserModel(bad, 8, 8, 2)

    def test_duplicate_layer_names_rejected(self):
        layers = [
            dif.AffineLayer("a", np.zeros((18, 6)), np.zeros(6)),
            dif.AffineLayer("a", np.zeros((6, 2)), np.zeros(2), activation="none"),
        ]
        with pytest.raises(ValueError):
            dif.DenoiserModel(layers, 8, 8, 2)

    def test_checkpoint_round_trip(self, tmp_path, trained):
        model, sched = trained
        path = tmp_path / "model.json"
        dif.save_checkpoint(model, sched, path)
        loaded, sched2 = dif.load_checkpoint(path)
        assert dif.model_hash(loaded, sched2) == dif.model_hash(model, sched)
        u = nc.RngStream(111).standard_normal(2 * 18).reshape(2, 18)
        assert np.array_equal(loaded.forward(u), model.forward(u))

    def test_unsupported_format_version_rejected(self, tmp_path, trained):
        import json

        model, sched = trained
        doc = dif.checkpoint_document(model, sched)
        doc["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            dif.load_checkpoint(path)
