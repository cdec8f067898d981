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
from .errors import ChainDivergenceError, ConfigError, ShapeError, TrainingDivergenceError

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


@dataclass
class AffineLayer:
    """One dense layer: out = act(q(in) @ weight + bias), q the optional input quantizer."""

    name: str
    weight: np.ndarray  # (n_in, n_out); (M, n_in, n_out) in a stack of M models
    bias: np.ndarray  # (n_out,); (M, 1, n_out) in a stack
    activation: str = "silu"  # "silu" | "none"
    quantizer: object = None  # callable (array, out=None) -> fake-quant of the input, or None

    def __post_init__(self):
        if np.ndim(self.weight) != 3:  # a stack's layers were checked one model at a time
            self.weight = nc.tensor2d(self.weight)
            self.bias = np.asarray(self.bias, dtype=np.float64).ravel()
        if self.bias.shape[-1] != self.weight.shape[-1]:
            raise ShapeError(f"layer {self.name}: bias size {self.bias.shape[-1]} != {self.weight.shape[-1]}")
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
            if a.weight.shape[-1] != b.weight.shape[-2]:
                raise ShapeError(f"layers {a.name} -> {b.name} do not chain")
        in_dim = data_dim + time_embed_dim + cond_embed_dim
        if layers[0].weight.shape[-2] != in_dim:
            raise ShapeError(f"first layer expects {layers[0].weight.shape[-2]} inputs, model input is {in_dim}")
        if layers[-1].weight.shape[-1] != data_dim:
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

    def forward(self, u: np.ndarray, tap=None, t: int = None, caches: list = None,
                work=None) -> np.ndarray:
        """Forward pass of (rows, n_in) inputs, or (M, rows, n_in) through a stack of M
        models; each layer's *input*, after its quantizer if it has one, is offered to
        the tap.  A ``caches`` list gets one (input, dact) pair per layer: SiLU's
        derivative s * (1 + z * (1 - s)) from the forward sigmoid s, or None.  Layer
        outputs go to ``work``, two flat arrays of (rows of u) x (widest layer) floats,
        if given, so the result and the offers are views that the next call overwrites."""
        h = u
        for lyr in self.layers:
            if lyr.quantizer is not None:  # in place, except on the caller's ``u``
                h = lyr.quantizer(h, out=None if h is u else h)
            if tap is not None:
                tap.offer(lyr.name, t, h)
            shape = (*h.shape[:-1], lyr.weight.shape[-1])
            z, e = (None, None) if work is None else \
                (w[:math.prod(shape)].reshape(shape) for w in work)
            z = np.matmul(h, lyr.weight, out=z)
            z += lyr.bias
            dact = None
            if lyr.activation == "silu":  # z / (1 + exp(-z))
                e = np.negative(z, out=e)  # updated in place: batched chains hold wide arrays
                np.exp(e, out=e)
                e += 1.0
                if caches is not None:
                    s = 1.0 / e
                    dact = s * (1.0 + z * (1.0 - s))
                z = np.divide(z, e, out=e)
            if caches is not None:
                caches.append((h, dact))
            h = z
        return h


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
    """MSE epsilon-prediction loss and gradients for every weight/bias (not for ``u``),
    back through the (input, activation derivative) pairs ``forward`` caches."""
    caches = []
    diff = model.forward(u, caches=caches) - eps
    loss = float(np.mean(diff**2))
    g = 2.0 * diff / diff.size
    grads = []
    for i in reversed(range(len(caches))):
        h_in, dact = caches[i]
        if dact is not None:
            g *= dact
        grads.append((h_in.T @ g, g.sum(axis=0)))
        if i:
            g = g @ model.layers[i].weight.T
    grads.reverse()
    return loss, grads


def training_batch(model: DenoiserModel, x0: np.ndarray, conds: np.ndarray, sched: NoiseSchedule,
                   ts: np.ndarray, eps: np.ndarray):
    """Assemble (u, eps) for a fixed draw of timesteps and noise; ``conds`` has one row per sample."""
    ab = sched.alpha_bar[ts - 1][:, None]
    xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    return np.hstack([xt, time_embedding_table(model.time_embed_dim, sched.T)[ts], conds]), eps


def train(model: DenoiserModel, dataset: np.ndarray, conds, sched: NoiseSchedule,
          hyper: TrainConfig, rng: nc.RngStream) -> TrainResult:
    """Mini-batch SGD on the epsilon-prediction MSE. Returns a trained copy.

    Batch ``start`` of epoch e draws its timesteps, then its noise, from
    rng.child(e).child(start).  The draws do not depend on the weights, so one
    training_batch call per epoch assembles every step's rows; the n % batch_size
    tail rows are dropped."""
    dataset = nc.tensor2d(dataset)
    (n, d), bs = dataset.shape, hyper.batch_size
    if n < bs:
        raise ValueError("dataset smaller than batch size")
    if len(conds) != n:
        raise ValueError("one condition embedding per dataset row is required")
    model = model.copy()
    cond_rows = np.array(conds)
    starts = range(0, n - bs + 1, bs)
    losses = []
    for epoch in range(hyper.epochs):
        erng = rng.child(epoch)
        rows = erng.permutation(n)[:len(starts) * bs]
        brngs = [erng.child(start) for start in starts]
        ts = np.concatenate([b.integers(1, sched.T + 1, size=bs) for b in brngs])
        eps = np.concatenate([b.standard_normal(bs * d) for b in brngs]).reshape(-1, d)
        u, eps = training_batch(model, dataset[rows], cond_rows[rows], sched, ts, eps)
        epoch_loss = 0.0
        for start in starts:
            loss, grads = _loss_and_grads(model, u[start:start + bs], eps[start:start + bs])
            if not math.isfinite(loss):
                raise TrainingDivergenceError(epoch, loss)
            for lyr, (gw, gb) in zip(model.layers, grads):
                lyr.weight -= hyper.learning_rate * gw
                lyr.bias -= hyper.learning_rate * gb
            epoch_loss += loss
        losses.append(epoch_loss / max(len(starts), 1))
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
    """Step a batch of reverse chains together from t = T; return each row's final state,
    (rows, data_dim), or (M, rows, data_dim) when ``model`` stacks M models.

    Row i has condition conds[i], starts at x_T = noise[0, i], and the step at t > 1
    adds sqrt(beta_tilde_t) noise[T - t + 1, i].  It stops on reaching t = stop[i]
    (default 0); ``stop`` is ascending, so running rows are a prefix of the batch.
    The tap sees one offer of all running rows per (layer, t).  A non-finite state
    stays non-finite, so one check of the final states catches any diverged step.
    """
    T, d, te_dim = sched.T, model.data_dim, model.time_embed_dim
    coef = {}  # t -> (epsilon coefficient, mean divisor, noise scale) of the step at t
    for t, ab_t in enumerate(sched.alpha_bar, start=1):
        ab_prev = sched.alpha_bar[t - 2] if t > 1 else 1.0
        alpha_t = ab_t / ab_prev
        beta_t = 1.0 - alpha_t
        coef[t] = (beta_t / math.sqrt(1.0 - ab_t), math.sqrt(alpha_t),
                   math.sqrt(beta_t * (1.0 - ab_prev) / (1.0 - ab_t)))
    stack = model.layers[0].weight.shape[:-2]  # () for one model, (M,) for a stack
    u = np.empty((*stack, noise.shape[1], d + te_dim + model.cond_embed_dim))
    u[..., :d], u[..., d + te_dim:] = noise[0], conds  # [x | time embedding | condition]
    x, te = u[..., :d], u[..., d:d + te_dim]
    work = np.empty((2, x[..., 0].size * max(lyr.weight.shape[-1] for lyr in model.layers)))
    stop = np.zeros(noise.shape[1], dtype=np.int64) if stop is None else np.asarray(stop)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports divergence
        for t in range(T, 0, -1):
            n = int(np.searchsorted(stop, t))  # rows with stop < t take this step
            if n == 0:
                break
            te[..., :n, :] = time_embedding_table(te_dim, T)[t]
            eps = model.forward(u[..., :n, :], tap=tap, t=t, work=work)
            c_eps, c_mean, c_noise = coef[t]
            eps *= c_eps
            xs = x[..., :n, :]
            np.subtract(xs, eps, out=eps)
            eps /= c_mean
            if t > 1:
                eps += c_noise * noise[T - t + 1, :n]
            xs[...] = eps
    if not np.all(np.isfinite(x)):
        raise ChainDivergenceError(f"reverse chains diverged: {np.sum(~np.isfinite(x).all(-1))} "
                                   f"of {x[..., 0].size} final states are non-finite")
    return x.copy()


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
