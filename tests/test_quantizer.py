"""Affine quantization grids, policies, and size accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import numeric_core as nc
from ptqkit import quantizer as qz
from ptqkit.diffusion import AffineLayer, DenoiserModel
from ptqkit.errors import CalibrationCoverageError


class TestGridBounds:
    @pytest.mark.parametrize("bits,lo,hi", [(4, -8, 7), (8, -128, 127), (16, -32768, 32767)])
    def test_signed_ranges(self, bits, lo, hi):
        assert qz.grid_bounds(bits) == (lo, hi)

    def test_unsupported_bitwidth(self):
        with pytest.raises(ValueError):
            qz.grid_bounds(3)


class TestRounding:
    def test_ties_away_from_zero(self):
        xs = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
        assert np.array_equal(qz.round_half_away(xs), [1, -1, 2, -2, 3, -3])

    def test_plain_rounding(self):
        assert np.array_equal(qz.round_half_away(np.array([0.4, -0.4, 1.6])), [0, 0, 2])


class TestFitParams:
    def test_symmetric_unit_span(self):
        p = qz.fit_params(np.array([-1.0, 0.2, 1.0]), 8, mode="symmetric")
        assert p.scale == pytest.approx(1.0 / 127.0)
        assert p.zero_point == 0

    def test_degenerate_constant_sample(self):
        p = qz.fit_params(np.full(10, 3.0), 8, mode="asymmetric")
        assert p.scale == qz.DEGENERATE_SCALE

    def test_degenerate_all_zero_symmetric(self):
        p = qz.fit_params(np.zeros(4), 8, mode="symmetric")
        assert p.scale == qz.DEGENERATE_SCALE

    def test_percentile_matches_exact_sample_percentile(self):
        # oracle: the p-th / (100-p)-th percentiles of the drawn sample itself
        xs = nc.RngStream(1, 2).standard_normal(10_000)
        p = qz.fit_params(xs, 8, mode="asymmetric", method="percentile", percentile=99.9)
        lo = p.scale * (p.c_min - p.zero_point)
        hi = p.scale * (p.c_max - p.zero_point)
        assert hi == pytest.approx(np.percentile(xs, 99.9), rel=0.05)
        assert lo == pytest.approx(np.percentile(xs, 0.1), rel=0.05)
        # for standard normals the 99.9th percentile sits near 3.09
        assert 2.8 <= hi <= 3.4 and -3.4 <= lo <= -2.8

    def test_percentile_requires_valid_p(self):
        with pytest.raises(ValueError):
            qz.fit_params(np.arange(4.0), 8, method="percentile", percentile=40.0)
        with pytest.raises(ValueError):
            qz.fit_params(np.arange(4.0), 8, method="percentile")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            qz.fit_params(np.arange(4.0), 8, method="histogram")

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            qz.fit_params(np.empty(0), 8)
        with pytest.raises(ValueError):
            qz.fit_params(np.array([1.0, np.inf]), 8)

    def test_asymmetric_zero_point_inside_grid(self):
        p = qz.fit_params(np.array([2.0, 9.0]), 8, mode="asymmetric")
        assert p.c_min <= p.zero_point <= p.c_max


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        p = qz.fit_params(np.array([-1.0, 1.0]), 8, mode="symmetric")
        out = qz.fake_quant(np.array([[0.0, -1e-6]]), p)
        assert np.array_equal(out, [[0.0, 0.0]]) and not np.any(np.signbit(out))

    def test_forced_code_value(self):
        p = qz.QuantParams(scale=0.1, zero_point=0, bitwidth=8, mode="symmetric")
        assert qz.fake_quant(np.array([[0.31]]), p)[0, 0] == 0.1 * 3  # code 3

    def test_out_of_range_clips(self):
        p = qz.QuantParams(scale=0.1, zero_point=0, bitwidth=8, mode="symmetric")
        assert qz.fake_quant(np.array([[100.0, -100.0]]), p).tolist() == [[0.1 * 127, 0.1 * -128]]

    def test_dequantize_forced_value(self):
        p = qz.QuantParams(scale=0.1, zero_point=0, bitwidth=8, mode="symmetric")
        assert qz.fake_quant(np.array([[0.3]]), p)[0, 0] == pytest.approx(0.3)

    def test_code_at_zero_point_dequantizes_to_zero(self):
        p = qz.QuantParams(scale=0.05, zero_point=17, bitwidth=8, mode="asymmetric")
        assert qz.fake_quant(np.array([[0.0]]), p)[0, 0] == 0.0

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_round_trip_bounded_by_half_scale(self, bits):
        # 10k random tensors per bitwidth, in-range values only
        rng = nc.RngStream(71, bits)
        lo, hi = -2.5, 4.0
        p = qz.fit_params(np.array([lo, hi]), bits, mode="asymmetric")
        w = (lo + (hi - lo) * rng.uniform(10_000 * 4)).reshape(10_000, 4)
        err = np.abs(qz.fake_quant(w, p) - w)
        assert np.max(err) <= p.scale / 2.0 + 1e-12

    @given(lo=st.floats(-100.0, 0.0), width=st.floats(1e-3, 200.0), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, lo, width, seed):
        hi = lo + width
        p = qz.fit_params(np.array([lo, hi]), 8, mode="asymmetric")
        w = (lo + width * nc.RngStream(seed).uniform(64)).reshape(8, 8)
        err = np.abs(qz.fake_quant(w, p) - w)
        assert np.max(err) <= p.scale / 2.0 * (1.0 + 1e-9)

    def test_4bit_matches_brute_force_nearest_grid(self):
        p = qz.fit_params(np.array([-1.3, 1.7]), 4, mode="asymmetric")
        w = (-1.3 + 3.0 * nc.RngStream(73).uniform(100_000)).reshape(-1, 1)
        grid = p.scale * (np.arange(p.c_min, p.c_max + 1) - p.zero_point)
        nearest = grid[np.argmin(np.abs(w - grid[None, :].reshape(1, -1)), axis=1)]
        assert np.array_equal(qz.fake_quant(w, p).ravel(), nearest)

    def test_quantization_preserves_order(self):
        p = qz.fit_params(np.array([-2.0, 2.0]), 8, mode="asymmetric")
        xs = np.sort(nc.RngStream(79).standard_normal(1000)).reshape(1, -1)
        deq = qz.fake_quant(xs, p).ravel()
        assert np.all(np.diff(deq) >= 0.0)

    def test_codes_outside_bounds_rejected(self):
        # the zero-point is a grid code, so it must lie in [c_min, c_max] = [-8, 7]
        with pytest.raises(ValueError):
            qz.QuantParams(scale=0.1, zero_point=9, bitwidth=4, mode="asymmetric")
        assert qz.QuantParams(scale=0.1, zero_point=7, bitwidth=4, mode="asymmetric").c_max == 7


class TestPolicyParsing:
    @pytest.mark.parametrize("s,expect", [
        ("8W16A", (8, 16)),
        ("4W8A", (4, 8)),
        ("16W8A", (16, 8)),
        ("fullWfullA", ("full", "full")),
        ("32W32A", ("full", "full")),
        ("8WfullA", (8, "full")),
    ])
    def test_parse(self, s, expect):
        assert qz.parse_policy_string(s) == expect

    @pytest.mark.parametrize("s", ["8W", "W8A", "3W8A", "8W4A", "8w8a", "octal"])
    def test_rejects_malformed(self, s):
        with pytest.raises(ValueError):
            qz.parse_policy_string(s)

    def test_round_trip_notation(self):
        for s in ("8W16A", "4W8A", "fullWfullA"):
            assert qz.policy_string(*qz.parse_policy_string(s)) == s

    def test_uniform_policy_covers_layers(self):
        pol = qz.PrecisionPolicy.uniform(["a", "b"], "8W8A")
        assert pol.per_layer == {"a": (8, 8), "b": (8, 8)}
        assert pol.notation == "8W8A"

    def test_validate_against_mismatch(self, trained):
        model, _ = trained
        pol = qz.PrecisionPolicy.uniform(["nope"], "8W8A")
        with pytest.raises(ValueError):
            pol.validate_against(model)


def _tiny_model():
    rng = nc.RngStream(5, 5)
    layers = [
        AffineLayer("layer0", rng.child(0).standard_normal(12 * 6).reshape(12, 6), np.zeros(6)),
        AffineLayer("layer1", rng.child(1).standard_normal(6 * 2).reshape(6, 2), np.zeros(2),
                    activation="none"),
    ]
    return DenoiserModel(layers, time_embed_dim=6, cond_embed_dim=4, data_dim=2)


class TestQuantizeModel:
    def test_all_full_policy_is_identity(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "fullWfullA")
        qmodel = qz.quantize_model(model, pol)
        u = nc.RngStream(83).standard_normal(3 * 12).reshape(3, 12)
        assert np.array_equal(qmodel.model.forward(u), model.forward(u))

    def test_weights_only_policy_needs_no_calibration(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "8WfullA")
        qmodel = qz.quantize_model(model, pol)  # no calibration set passed
        u = nc.RngStream(89).standard_normal(12).reshape(1, 12)
        assert np.all(np.isfinite(qmodel.model.forward(u)))

    def test_activation_policy_without_calibration_names_layer(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "8W8A")
        with pytest.raises(CalibrationCoverageError, match="layer0"):
            qz.quantize_model(model, pol)

    def test_8w16a_beats_4w8a(self, pipeline_cfg, trained, prompt_set, calibset):
        from ptqkit.experiments import evaluate_pair

        model, sched = trained
        results = {}
        for spec in ("8W16A", "4W8A"):
            pol = qz.PrecisionPolicy.uniform(model.layer_names, spec)
            qmodel = qz.quantize_model(model, pol, calibset,
                                       method=pipeline_cfg.act_range_method,
                                       percentile=pipeline_cfg.act_percentile)
            results[spec] = evaluate_pair(model, qmodel.model, sched, prompt_set,
                                          pipeline_cfg.cond_embed_dim, 32, seed=123)
        assert results["8W16A"]["mse"] < results["4W8A"]["mse"]


def reference_forward(qmodel, u, tap=None, t=None):
    """The fake-quantized forward pass written out inline, from the record's
    activation params rather than the layers' own quantizers."""
    h = u
    for lyr in qmodel.model.layers:
        ap = qmodel.act_params[lyr.name]
        if ap is not None:
            h = qz.fake_quant(h, ap)
        if tap is not None:
            tap.offer(lyr.name, t, h)
        z = h @ lyr.weight + lyr.bias
        h = z / (1.0 + np.exp(-z)) if lyr.activation == "silu" else z
    return h


class _Offers(list):
    def offer(self, layer, t, values):
        self.append((layer, t, np.array(values)))


class TestQuantizedForward:
    def _quantized(self, spec, trained, calibset, cfg):
        model, _ = trained
        return qz.quantize_model(model, qz.PrecisionPolicy.uniform(model.layer_names, spec),
                                 calibset, method=cfg.act_range_method,
                                 percentile=cfg.act_percentile)

    @pytest.mark.parametrize("spec", ["8W8A", "4W8A"])
    def test_forward_equals_inline_reference(self, spec, trained, calibset, pipeline_cfg):
        qmodel = self._quantized(spec, trained, calibset, pipeline_cfg)
        u = nc.RngStream(103).standard_normal(16 * 18).reshape(16, 18)
        assert np.array_equal(qmodel.model.forward(u), reference_forward(qmodel, u))

    def test_tap_sees_quantized_inputs(self, trained, calibset, pipeline_cfg):
        qmodel = self._quantized("4W8A", trained, calibset, pipeline_cfg)
        u = nc.RngStream(107).standard_normal(8 * 18).reshape(8, 18)
        got, want = _Offers(), _Offers()
        qmodel.model.forward(u, tap=got, t=7)
        reference_forward(qmodel, u, tap=want, t=7)
        assert [(n, t) for n, t, _ in got] == [(n, 7) for n in qmodel.model.layer_names]
        for (_, _, g), (_, _, w) in zip(got, want):
            assert np.array_equal(g, w)
        for name, _, h in got:  # every offered input already lies on its layer's grid
            assert np.array_equal(qz.fake_quant(h, qmodel.act_params[name]), h)
        assert not np.array_equal(got[0][2], u)


class TestSizeAccounting:
    def test_all_8bit_from_32bit_is_75_percent(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "8W8A")
        _, _, reduction = qz.model_size_bytes(model, pol, include_overhead=False)
        assert reduction == 75.0

    def test_all_fp16_is_50_percent(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "fullWfullA")
        _, _, reduction = qz.model_size_bytes(model, pol, include_overhead=False)
        assert reduction == 50.0

    def test_half_fp16_half_4bit_is_68_75_percent(self):
        # two layers with identical parameter counts, one preserved, one 4-bit
        rng = nc.RngStream(97)
        layers = [
            AffineLayer("layer0", rng.child(0).standard_normal(12 * 12).reshape(12, 12),
                        np.zeros(12)),
            AffineLayer("layer1", rng.child(1).standard_normal(12 * 12).reshape(12, 12),
                        np.zeros(12), activation="none"),
        ]
        # equalize totals exactly: both layers carry 12*12 weights + 12 biases
        model = DenoiserModel(layers, time_embed_dim=0, cond_embed_dim=0, data_dim=12)
        pol = qz.PrecisionPolicy({"layer0": ("full", "full"), "layer1": (4, "full")})
        _, _, reduction = qz.model_size_bytes(model, pol, include_overhead=False)
        assert reduction == 68.75

    def test_overhead_accounting_adds_bytes(self):
        model = _tiny_model()
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "8W8A")
        _, lean, _ = qz.model_size_bytes(model, pol, include_overhead=False)
        _, padded, _ = qz.model_size_bytes(model, pol, include_overhead=True)
        assert padded == lean + qz.QUANT_PARAMS_OVERHEAD_BYTES * len(model.layers)


class TestQuantizedCheckpoint:
    def test_round_trip_preserves_forward(self, tmp_path, trained, calibset, pipeline_cfg):
        model, sched = trained
        pol = qz.PrecisionPolicy.uniform(model.layer_names, "8W8A")
        qmodel = qz.quantize_model(model, pol, calibset,
                                   method=pipeline_cfg.act_range_method,
                                   percentile=pipeline_cfg.act_percentile)
        path = tmp_path / "q.json"
        qz.save_quantized_checkpoint(qmodel, sched, path)
        loaded, sched2 = qz.load_quantized_checkpoint(path)
        u = nc.RngStream(101).standard_normal(4 * 18).reshape(4, 18)
        assert all(lyr.quantizer is not None for lyr in loaded.model.layers)
        assert np.array_equal(loaded.model.forward(u), qmodel.model.forward(u))
        assert np.array_equal(loaded.model.forward(u), reference_forward(loaded, u))
        assert np.array_equal(sched2.alpha_bar, sched.alpha_bar)
        assert loaded.policy.notation == "8W8A"
