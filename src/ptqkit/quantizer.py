"""Affine quantization: w_hat = s * (clip(round(w / s) + Z, c_min, c_max) - Z).

Weights use per-tensor symmetric grids (Z = 0), activations per-tensor
asymmetric grids.  Quantization is simulated (fake): everything stays
float64.  ``quantize_model`` returns a plain record whose ``model`` is an
ordinary DenoiserModel with quantize-dequantized weights, and whose layers
each carry an input quantizer (``fake_quant`` with the layer's activation
params) that ``DenoiserModel.forward`` applies; there is no second forward
pass.

Rounding is half-away-from-zero, frozen for cross-platform determinism.
"""

import functools
import re
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import read_json, write_json
from .diffusion import AffineLayer, DenoiserModel, checkpoint_document, model_from_document
from .errors import CalibrationCoverageError

SUPPORTED_BITWIDTHS = (4, 8, 16)
DEGENERATE_SCALE = 1e-8
FULL = "full"


def grid_bounds(bitwidth: int):
    """Signed integer grid [c_min, c_max] for a bitwidth."""
    if bitwidth not in SUPPORTED_BITWIDTHS:
        raise ValueError(f"unsupported bitwidth {bitwidth}; expected one of {SUPPORTED_BITWIDTHS}")
    return -(2 ** (bitwidth - 1)), 2 ** (bitwidth - 1) - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest, ties away from zero (np.round would round ties to even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Grid parameters for one tensor; the grid [c_min, c_max] follows from the bitwidth."""

    scale: float
    zero_point: int
    bitwidth: int
    mode: str  # "symmetric" | "asymmetric"

    def __post_init__(self):
        grid_bounds(self.bitwidth)  # rejects an unsupported bitwidth
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.mode == "symmetric":
            if self.zero_point != 0:
                raise ValueError("symmetric mode forces zero_point = 0")
        elif self.mode == "asymmetric":
            if not (self.c_min <= self.zero_point <= self.c_max):
                raise ValueError("zero_point must lie inside the grid")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def c_min(self) -> int:
        return grid_bounds(self.bitwidth)[0]

    @property
    def c_max(self) -> int:
        return grid_bounds(self.bitwidth)[1]


def fit_params(samples, bitwidth: int, mode: str = "symmetric", method: str = "minmax",
               percentile: float = None) -> QuantParams:
    """Fit scale/zero-point from observed values.

    minmax uses the observed extremes; percentile(p) replaces them with
    the p-th / (100-p)-th percentiles of the sample.  A degenerate
    (all-equal) sample gets scale 1e-8 and a centered zero-point rather
    than an error, so constant tensors never abort the pipeline.
    """
    xs = np.asarray(samples, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("fit_params requires a non-empty sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("fit_params requires finite samples")
    lo_grid, hi_grid = grid_bounds(bitwidth)
    if method == "minmax":
        lo, hi = float(np.min(xs)), float(np.max(xs))
    elif method == "percentile":
        if percentile is None or not (50.0 < percentile <= 100.0):
            raise ValueError("percentile method needs p in (50, 100]")
        hi = float(np.percentile(xs, percentile))
        lo = float(np.percentile(xs, 100.0 - percentile))
    else:
        raise ValueError(f"unknown range method {method!r}")

    if mode == "symmetric":
        amax = max(abs(lo), abs(hi))
        scale = amax / hi_grid if amax > 0.0 else DEGENERATE_SCALE
        return QuantParams(scale=scale, zero_point=0, bitwidth=bitwidth, mode="symmetric")
    if mode == "asymmetric":
        if hi <= lo:
            return QuantParams(scale=DEGENERATE_SCALE, zero_point=0, bitwidth=bitwidth,
                               mode="asymmetric")
        # the grid must be able to represent 0 exactly, otherwise the
        # zero-point clips to the grid edge and in-range values become
        # unrepresentable; widening to include 0 keeps Z inside the grid
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        scale = (hi - lo) / (hi_grid - lo_grid)
        zp = int(np.clip(round_half_away(np.array(lo_grid - lo / scale)), lo_grid, hi_grid))
        return QuantParams(scale=scale, zero_point=zp, bitwidth=bitwidth, mode="asymmetric")
    raise ValueError(f"unknown mode {mode!r}")


def fake_quant(w: np.ndarray, p: QuantParams) -> np.ndarray:
    """Quantize-dequantize: the grid code of each value, clipped, back in float64."""
    codes = np.clip(round_half_away(w / p.scale) + p.zero_point, p.c_min, p.c_max)
    return p.scale * (codes - p.zero_point)


_POLICY_RE = re.compile(r"^(full|\d+)W(full|\d+)A$")


def parse_policy_string(s: str):
    """'8W16A' -> (8, 16); 'full' is allowed per side; '32' is an alias of full."""
    m = _POLICY_RE.match(s.strip())
    if not m:
        raise ValueError(f"cannot parse policy string {s!r} (expected '<bits>W<bits>A')")

    def _side(tok, allowed):
        if tok == FULL:
            return FULL
        bits = int(tok)
        if bits == 32:
            return FULL
        if bits not in allowed:
            raise ValueError(f"bitwidth {bits} not supported (allowed: {allowed} or 'full')")
        return bits

    return _side(m.group(1), (4, 8, 16)), _side(m.group(2), (8, 16))


def policy_string(weight_bits, act_bits) -> str:
    w = FULL if weight_bits == FULL else str(weight_bits)
    a = FULL if act_bits == FULL else str(act_bits)
    return f"{w}W{a}A"


class PrecisionPolicy:
    """Per-layer (weight_bits, act_bits) map; 'full' skips quantization."""

    def __init__(self, per_layer: dict, notation: str = None):
        self.per_layer = dict(per_layer)
        for name, (wb, ab) in self.per_layer.items():
            if wb != FULL and wb not in (4, 8, 16):
                raise ValueError(f"layer {name}: bad weight bits {wb!r}")
            if ab != FULL and ab not in (8, 16):
                raise ValueError(f"layer {name}: bad activation bits {ab!r}")
        self.notation = notation or "mixed"

    @classmethod
    def uniform(cls, layer_names, spec: str) -> "PrecisionPolicy":
        wb, ab = parse_policy_string(spec)
        return cls({name: (wb, ab) for name in layer_names}, notation=policy_string(wb, ab))

    def validate_against(self, model: DenoiserModel) -> None:
        missing = set(self.per_layer) - set(model.layer_names)
        extra = set(model.layer_names) - set(self.per_layer)
        if missing or extra:
            raise ValueError(f"policy/model layer mismatch (policy-only={sorted(missing)}, model-only={sorted(extra)})")

    def weight_bits(self, name):
        return self.per_layer[name][0]

    def act_bits(self, name):
        return self.per_layer[name][1]


@dataclass(frozen=True)
class QuantizedModel:
    """A fake-quantized model and the parameters that made it.

    ``model`` is a DenoiserModel whose weights are already
    quantize-dequantized and whose layers carry their activation
    quantizers, so its own forward pass is the quantized one.
    """

    model: DenoiserModel
    policy: PrecisionPolicy
    weight_params: dict  # layer -> QuantParams | None
    act_params: dict  # layer -> QuantParams | None


def _input_quantizer(ap):
    return None if ap is None else functools.partial(fake_quant, p=ap)


def quantize_model(model: DenoiserModel, policy: PrecisionPolicy, calib=None,
                   method: str = "minmax", percentile: float = None) -> QuantizedModel:
    """Apply a precision policy using calibration activations for ranges.

    Weight params are fitted from each layer's own weights (symmetric);
    activation params from the calibration set's recorded layer inputs
    (asymmetric).  Layers marked full on a side are passed through.
    """
    policy.validate_against(model)
    qlayers = []
    weight_params, act_params = {}, {}
    for lyr in model.layers:
        wb = policy.weight_bits(lyr.name)
        wp = None if wb == FULL else fit_params(lyr.weight.ravel(), wb, mode="symmetric",
                                                method="minmax")
        ab = policy.act_bits(lyr.name)
        ap = None
        if ab != FULL:
            values = None if calib is None else calib.activations_for_layer(lyr.name)
            if values is None or values.size == 0:
                raise CalibrationCoverageError(lyr.name)
            ap = fit_params(values, ab, mode="asymmetric", method=method, percentile=percentile)
        weight_params[lyr.name], act_params[lyr.name] = wp, ap
        weight = lyr.weight.copy() if wp is None else fake_quant(lyr.weight, wp)
        qlayers.append(AffineLayer(lyr.name, weight, lyr.bias.copy(), lyr.activation,
                                   _input_quantizer(ap)))
    qmodel = DenoiserModel(qlayers, model.time_embed_dim, model.cond_embed_dim, model.data_dim)
    return QuantizedModel(qmodel, policy, weight_params, act_params)


QUANT_PARAMS_OVERHEAD_BYTES = 8  # one scale (f32) + zero-point/bits record per tensor


def model_size_bytes(model: DenoiserModel, policy: PrecisionPolicy,
                     include_overhead: bool = True):
    """(full_bytes, quantized_bytes, reduction_pct) under a policy.

    Full precision is 4 bytes/param; 'full'-preserved layers are counted
    at FP16 (2 bytes/param).  Biases are counted at the layer's weight
    precision for accounting purposes (at runtime they stay float).
    """
    policy.validate_against(model)
    full_bytes = 0
    quant_bytes = 0.0
    for lyr in model.layers:
        n = lyr.n_params
        full_bytes += n * 4
        wb = policy.weight_bits(lyr.name)
        if wb == FULL:
            quant_bytes += n * 2
        else:
            quant_bytes += n * (wb / 8.0)
            if include_overhead:
                quant_bytes += QUANT_PARAMS_OVERHEAD_BYTES
    reduction = 100.0 * (1.0 - quant_bytes / full_bytes)
    return full_bytes, quant_bytes, reduction


def save_quantized_checkpoint(qmodel: QuantizedModel, sched, path) -> None:
    """Quantized checkpoint = base checkpoint + policy + per-layer QuantParams."""
    doc = checkpoint_document(qmodel.model, sched)
    doc["policy"] = {
        "notation": qmodel.policy.notation,
        "per_layer": {
            name: [str(wb), str(ab)] for name, (wb, ab) in qmodel.policy.per_layer.items()
        },
    }
    doc["quant_params"] = {
        name: {
            "weight": asdict(qmodel.weight_params[name]) if qmodel.weight_params[name] else None,
            "activation": asdict(qmodel.act_params[name]) if qmodel.act_params[name] else None,
        }
        for name in qmodel.model.layer_names
    }
    write_json(path, doc)


def load_quantized_checkpoint(path):
    doc = read_json(path)
    model, sched = model_from_document(doc)

    def _bits(tok):
        return FULL if tok == FULL else int(tok)

    per_layer = {name: (_bits(wb), _bits(ab)) for name, (wb, ab) in doc["policy"]["per_layer"].items()}
    policy = PrecisionPolicy(per_layer, notation=doc["policy"]["notation"])
    wp, ap = ({name: QuantParams(**rec[kind]) if rec[kind] else None
               for name, rec in doc["quant_params"].items()} for kind in ("weight", "activation"))
    for lyr in model.layers:  # the saved weights are already fake-quantized
        lyr.quantizer = _input_quantizer(ap[lyr.name])
    return QuantizedModel(model, policy, wp, ap), sched

