"""A small conditional denoising diffusion model with manual gradients.

The model is an MLP epsilon-predictor: the input is the concatenation of
the current state x_t, a sinusoidal timestep embedding, and a prompt
condition embedding.  It is deliberately tiny -- it exists so the
quantization pipeline has real layers, activations, timesteps, and
prompt conditioning to work with at desk scale.
"""

import copy
import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import numeric_core as nc
from .artifacts import doc_hash, read_json, write_json
from .errors import ConfigError, ShapeError, TrainingDivergenceError

CHECKPOINT_FORMAT_VERSION = 1


class NoiseSchedule:
    """Cumulative signal-retention coefficients alpha_bar[0..T-1].

    Strictly decreasing in (0, 1); violating arrays are rejected at
    construction.
    """

    def __init__(self, alpha_bar, kind: str = "custom"):
        ab = np.asarray(alpha_bar, dtype=np.float64)
        if ab.ndim != 1 or ab.size < 1:
            raise ValueError("alpha_bar must be a non-empty 1-D array")
        if not (np.all(ab > 0.0) and np.all(ab < 1.0)):
            raise ValueError("alpha_bar entries must lie strictly in (0, 1)")
        if not np.all(np.diff(ab) < 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        self.alpha_bar = ab
        self.T = int(ab.size)
        self.kind = kind

    @classmethod
    def linear_beta(cls, T: int, beta_start: float = 0.002, beta_end: float = 0.25) -> "NoiseSchedule":
        betas = np.linspace(beta_start, beta_end, T)
        return cls(np.cumprod(1.0 - betas), kind="linear_beta")

    @classmethod
    def cosine(cls, T: int, s: float = 0.008) -> "NoiseSchedule":
        ts = np.arange(1, T + 1, dtype=np.float64)
        f = np.cos((ts / T + s) / (1.0 + s) * np.pi / 2.0) ** 2
        f0 = math.cos(s / (1.0 + s) * math.pi / 2.0) ** 2
        ab = np.clip(f / f0, 1e-8, 1.0 - 1e-8)
        # enforce strict decrease after clipping
        for i in range(1, T):
            ab[i] = min(ab[i], ab[i - 1] * (1.0 - 1e-12))
        return cls(ab, kind="cosine")


@dataclass
class LatentState:
    """Diffusion state x_t (or z_t for a latent-space model) at timestep t."""

    t: int
    value: np.ndarray

    def __post_init__(self):
        self.value = nc.tensor2d(self.value)
        if self.t < 0:
            raise ValueError("timestep must be >= 0")


def _stable_floats(tag: str, n: int) -> np.ndarray:
    """n floats in [-1, 1] derived from sha256(tag)."""
    out = np.empty(n)
    i = 0
    counter = 0
    while i < n:
        digest = hashlib.sha256(f"{tag}:{counter}".encode()).digest()
        for k in range(0, len(digest) - 3, 4):
            if i >= n:
                break
            val = int.from_bytes(digest[k : k + 4], "big")
            out[i] = (val / 0xFFFFFFFF) * 2.0 - 1.0
            i += 1
        counter += 1
    return out


def condition_embedding(text: str, coverage_bits, dim: int) -> np.ndarray:
    """Deterministic unit-norm prompt embedding, from the prompt's coverage bits
    and a hashed bag of its tokens, so identical text maps to the identical vector."""
    if not text.strip():
        raise ValueError("prompt text must be non-empty")
    v = np.zeros(dim)
    for i, bit in enumerate(coverage_bits):
        if bit:
            v += _stable_floats(f"aspect-axis:{i}", dim)
    for tok in text.lower().split():
        tok = "".join(ch for ch in tok if ch.isalnum())
        if not tok:
            continue
        h = int.from_bytes(hashlib.sha256(tok.encode()).digest()[:8], "big")
        v[h % dim] += 0.25 if (h >> 8) % 2 == 0 else -0.25
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v[0] = 1.0
        norm = 1.0
    return v / norm


def time_embedding(t, dim: int, T: int) -> np.ndarray:
    """Sinusoidal embedding of even dimension ``dim`` of a timestep or an array of them."""
    half = dim // 2
    freqs = np.exp(-math.log(1000.0) * np.arange(half) / max(half - 1, 1))
    ang = (np.asarray(t)[..., None] / T) * freqs * 2.0 * np.pi
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@functools.lru_cache(maxsize=8)
def time_embedding_table(dim: int, T: int) -> np.ndarray:
    """Read-only (T + 1, dim) table whose row t embeds timestep t."""
    table = time_embedding(np.arange(T + 1), dim, T)
    table.setflags(write=False)
    return table


def silu(z: np.ndarray) -> np.ndarray:
    e = np.negative(z)  # one temporary, updated in place: batched chains hold wide arrays
    np.exp(e, out=e)
    e += 1.0
    return np.divide(z, e, out=e)


def silu_grad(z: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


@dataclass
class AffineLayer:
    """One dense layer: out = act(q(in) @ weight + bias), q the optional input quantizer."""

    name: str
    weight: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: str = "silu"  # "silu" | "none"
    quantizer: object = None  # callable array -> array (fake-quant of the input), or None

    def __post_init__(self):
        self.weight = nc.tensor2d(self.weight)
        self.bias = np.asarray(self.bias, dtype=np.float64).ravel()
        if self.bias.size != self.weight.shape[1]:
            raise ShapeError(f"layer {self.name}: bias size {self.bias.size} != {self.weight.shape[1]}")
        if self.activation not in ("silu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_params(self) -> int:
        return self.weight.size + self.bias.size


class DenoiserModel:
    """MLP epsilon-predictor over [x_t | time_embed | cond_embed]."""

    def __init__(self, layers, time_embed_dim: int, cond_embed_dim: int, data_dim: int):
        if len(layers) < 1:
            raise ValueError("model needs at least one layer")
        names = [lyr.name for lyr in layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise ShapeError(f"layers {a.name} -> {b.name} do not chain")
        in_dim = data_dim + time_embed_dim + cond_embed_dim
        if layers[0].weight.shape[0] != in_dim:
            raise ShapeError(f"first layer expects {layers[0].weight.shape[0]} inputs, model input is {in_dim}")
        if layers[-1].weight.shape[1] != data_dim:
            raise ShapeError("last layer must output data_dim values")
        self.layers = list(layers)
        self.time_embed_dim = int(time_embed_dim)
        self.cond_embed_dim = int(cond_embed_dim)
        self.data_dim = int(data_dim)

    @property
    def layer_names(self):
        return [lyr.name for lyr in self.layers]

    @classmethod
    def create(cls, data_dim: int = 2, hidden=(64, 64, 64), time_embed_dim: int = 8,
               cond_embed_dim: int = 8, rng: nc.RngStream = None) -> "DenoiserModel":
        rng = rng or nc.RngStream(0, 1)
        dims = [data_dim + time_embed_dim + cond_embed_dim, *hidden, data_dim]
        layers = []
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
            w = rng.child(10 + i).standard_normal(n_in * n_out).reshape(n_in, n_out) / math.sqrt(n_in)
            b = np.zeros(n_out)
            act = "none" if i == len(dims) - 2 else "silu"
            layers.append(AffineLayer(name=f"layer{i}", weight=w, bias=b, activation=act))
        return cls(layers, time_embed_dim, cond_embed_dim, data_dim)

    def copy(self) -> "DenoiserModel":
        return copy.deepcopy(self)

    def assemble_input(self, x: np.ndarray, t, cond, T: int) -> np.ndarray:
        """Rows [x | time embedding | condition]; ``t`` and ``cond`` are shared or per row."""
        x = nc.tensor2d(x)
        te = time_embedding_table(self.time_embed_dim, T)[t]
        return np.hstack([x, np.broadcast_to(te, (len(x), self.time_embed_dim)),
                          np.broadcast_to(cond, (len(x), self.cond_embed_dim))])

    def forward(self, u: np.ndarray, tap=None, t: int = None, caches: list = None) -> np.ndarray:
        """Forward pass; each layer's *input*, after its quantizer if it has one, is
        offered to the tap, and (input, pre-activation) pairs are appended to ``caches``."""
        h = u
        for lyr in self.layers:
            if lyr.quantizer is not None:
                h = lyr.quantizer(h)
            if tap is not None:
                tap.offer(lyr.name, t, h)
            z = h @ lyr.weight
            z += lyr.bias
            if caches is not None:
                caches.append((h, z))
            h = silu(z) if lyr.activation == "silu" else z
        return h


def denoise_step(model, state: LatentState, cond, sched: NoiseSchedule, noise,
                 tap=None) -> LatentState:
    """One ancestral reverse step of every row; t == 1 is deterministic (no added noise).

    Uses the posterior variance beta_tilde_t; the final state has t
    decremented by one.  ``noise`` is the step's standard-normal noise, one
    value per state entry (unused at t == 1).
    """
    t = state.t
    if t < 1:
        raise ValueError("cannot denoise a state at t=0")
    if t > sched.T:
        raise ValueError(f"state timestep {t} exceeds schedule T={sched.T}")
    ab_t = sched.alpha_bar[t - 1]
    ab_prev = sched.alpha_bar[t - 2] if t > 1 else 1.0
    alpha_t = ab_t / ab_prev
    beta_t = 1.0 - alpha_t
    eps_hat = model.forward(model.assemble_input(state.value, t, cond, sched.T), tap=tap, t=t)
    mean = (state.value - beta_t / math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(alpha_t)
    if t > 1:
        var = beta_t * (1.0 - ab_prev) / (1.0 - ab_t)
        x_prev = mean + math.sqrt(var) * noise
    else:
        x_prev = mean
    return LatentState(t=t - 1, value=x_prev)


@dataclass
class TrainConfig:
    learning_rate: float = 0.02
    epochs: int = 300
    batch_size: int = 64


@dataclass
class TrainResult:
    model: DenoiserModel
    losses: list = field(default_factory=list)


def _loss_and_grads(model: DenoiserModel, u: np.ndarray, eps: np.ndarray):
    """MSE epsilon-prediction loss and gradients for every weight/bias."""
    caches = []
    diff = model.forward(u, caches=caches) - eps
    loss = float(np.mean(diff**2))
    g = 2.0 * diff / diff.size
    grads = []
    for lyr, (h_in, z) in zip(reversed(model.layers), reversed(caches)):
        if lyr.activation == "silu":
            g = g * silu_grad(z)
        gw = h_in.T @ g
        gb = g.sum(axis=0)
        grads.append((gw, gb))
        g = g @ lyr.weight.T
    grads.reverse()
    return loss, grads


def training_batch(model: DenoiserModel, x0: np.ndarray, conds: np.ndarray, sched: NoiseSchedule,
                   ts: np.ndarray, eps: np.ndarray):
    """Assemble (u, eps) for a fixed draw of timesteps and noise; ``conds`` has one row per sample."""
    ab = sched.alpha_bar[ts - 1][:, None]
    xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    return model.assemble_input(xt, ts, conds, sched.T), eps


def train(model: DenoiserModel, dataset: np.ndarray, conds, sched: NoiseSchedule,
          hyper: TrainConfig, rng: nc.RngStream) -> TrainResult:
    """Mini-batch SGD on the epsilon-prediction MSE. Returns a trained copy."""
    dataset = nc.tensor2d(dataset)
    n = dataset.shape[0]
    if n < hyper.batch_size:
        raise ValueError("dataset smaller than batch size")
    if len(conds) != n:
        raise ValueError("one condition embedding per dataset row is required")
    model = model.copy()
    cond_rows = np.array(conds)
    losses = []
    for epoch in range(hyper.epochs):
        erng = rng.child(epoch)
        order = erng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n - hyper.batch_size + 1, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            x0 = dataset[idx]
            brng = erng.child(start)
            ts = brng.integers(1, sched.T + 1, size=len(idx))
            eps = brng.standard_normal(x0.size).reshape(x0.shape)
            u, eps = training_batch(model, x0, cond_rows[idx], sched, ts, eps)
            loss, grads = _loss_and_grads(model, u, eps)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(epoch, loss)
            for lyr, (gw, gb) in zip(model.layers, grads):
                lyr.weight -= hyper.learning_rate * gw
                lyr.bias -= hyper.learning_rate * gb
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
    return TrainResult(model=model, losses=losses)


def chain_noise(rngs, T: int, data_dim: int, rows: int = 1) -> np.ndarray:
    """(T, len(rngs) * rows, data_dim) noise for :func:`reverse_chains`: stream j's T
    blocks, for its ``rows`` rows, are its T sequential standard_normal draws."""
    noise = np.empty((T, len(rngs) * rows, data_dim))
    for j, rng in enumerate(rngs):
        blocks = rng.standard_normal_blocks(T, rows * data_dim)
        noise[:, j * rows:(j + 1) * rows] = blocks.reshape(T, rows, data_dim)
    return noise


def reverse_chains(model, sched: NoiseSchedule, conds: np.ndarray, noise: np.ndarray,
                   tap=None, stop=None) -> np.ndarray:
    """Step a batch of reverse chains together from t = T; return each row's final state.

    Row i has condition conds[i], starts at x_T = noise[0, i], and the step at
    t > 1 adds noise[T - t + 1, i].  It stops on reaching t = stop[i] (default
    0); ``stop`` is ascending, so running rows are a prefix of the batch.  The
    tap sees one offer of all running rows per (layer, t).
    """
    T = sched.T
    x = noise[0]
    out = np.empty_like(x)
    stop = np.zeros(len(x), dtype=np.int64) if stop is None else np.asarray(stop)
    for t in range(T, 0, -1):
        n = int(np.searchsorted(stop, t))  # rows with stop < t take this step
        out[n:len(x)] = x[n:]
        if n == 0:
            return out
        z = noise[T - t + 1, :n] if t > 1 else None
        x = denoise_step(model, LatentState(t=t, value=x[:n]), conds[:n], sched, z, tap=tap).value
    out[:len(x)] = x
    return out


def make_mixture_dataset(conds, n_per_cond: int, rng: nc.RngStream, data_dim: int = 2,
                         mode_radius: float = 3.0, noise_std: float = 1.0):
    """Synthetic 2-component Gaussian mixture whose modes depend on the condition.

    Each condition embedding c maps (through a fixed projection) to a pair
    of antipodal modes at +/- mode_radius, so prompts with different
    coverage genuinely induce different data and activation distributions.
    """
    if not conds:
        raise ValueError("need at least one condition")
    xs, row_conds = [], []
    for j, cond in enumerate(conds):
        mu = mixture_modes(cond, data_dim, mode_radius)[0]
        crng = rng.child(j)
        signs = np.where(crng.uniform(n_per_cond) < 0.5, 1.0, -1.0)
        noise = crng.standard_normal(n_per_cond * data_dim).reshape(n_per_cond, data_dim)
        xs.append(signs[:, None] * mu[None, :] + noise_std * noise)
        row_conds.extend([cond] * n_per_cond)
    return np.vstack(xs), row_conds


def mixture_modes(cond: np.ndarray, data_dim: int = 2, mode_radius: float = 3.0) -> np.ndarray:
    """The two mode centers the dataset generator uses for this condition."""
    proj = nc.RngStream(0xD1F, 0).standard_normal(data_dim * cond.size).reshape(data_dim, cond.size)
    mu = proj @ cond
    mu = mode_radius * mu / max(float(np.linalg.norm(mu)), 1e-9)
    return np.vstack([mu, -mu])


def save_checkpoint(model: DenoiserModel, sched: NoiseSchedule, path) -> None:
    write_json(path, checkpoint_document(model, sched))


def checkpoint_document(model: DenoiserModel, sched: NoiseSchedule) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "schedule": {"kind": sched.kind, "alpha_bar": sched.alpha_bar.tolist()},
        "data_dim": model.data_dim,
        "time_embed_dim": model.time_embed_dim,
        "cond_embed_dim": model.cond_embed_dim,
        "layer_names": model.layer_names,
        "layers": [
            {
                "name": lyr.name,
                "activation": lyr.activation,
                "weight": lyr.weight.tolist(),
                "bias": lyr.bias.tolist(),
            }
            for lyr in model.layers
        ],
    }


def model_from_document(doc: dict):
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    sched = NoiseSchedule(doc["schedule"]["alpha_bar"], kind=doc["schedule"]["kind"])
    layers = [
        AffineLayer(name=d["name"], weight=np.array(d["weight"]), bias=np.array(d["bias"]),
                    activation=d["activation"])
        for d in doc["layers"]
    ]
    model = DenoiserModel(layers, doc["time_embed_dim"], doc["cond_embed_dim"], doc["data_dim"])
    return model, sched


def load_checkpoint(path):
    return model_from_document(read_json(path))


def model_hash(model: DenoiserModel, sched: NoiseSchedule) -> str:
    return doc_hash(checkpoint_document(model, sched))
