"""Calibration-set builders: variance-aware plus the two baseline samplers.

A calibration sample is the input activation of one layer at one
timestep of one prompt's reverse chain.  Each sample reads a small batch
of chains, so the activation payload carries enough rows to pin down the
layer's value range.  Sample i of every set built together reads the
same chains, keyed by (base stream, i), and each chain is replayed once,
from pure noise down to the smallest timestep any set asks of it.  A
sample's activation is tapped from its chain's own step at the sample's
timestep, so a set built with others is byte-identical to the set built alone.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import numeric_core as nc
from .artifacts import decode_array, doc_hash, encode_array, read_json, write_json
from .diffusion import chain_noise, condition_embedding, model_hash, reverse_chains
from .errors import ConfigError, DegenerateProfileError
from .profiler import LayerVarianceProfile

CALIBSET_FORMAT_VERSION = 2  # activations as encode_array text
MAX_TAU_HALVINGS = 64
CAPTURE_BATCH = 8  # chains replayed per calibration sample
CAPTURE_ROWS = 1024  # widest batch a capture replay steps

STRATEGIES = ("variance_aware", "random_uniform", "normal_timestep")


@dataclass
class CalibrationSample:
    prompt_id: str
    timestep: int
    layer: str
    activation: np.ndarray  # layer-input snapshot, (batch, n_in)


@dataclass
class CalibrationSet:
    samples: list
    K: int
    strategy: str
    seed_key: tuple  # (seed, stream_id) of the stream that built the set
    profile_hash: str = ""
    model_hash: str = ""
    extra: dict = field(default_factory=dict)

    def activations_for_layer(self, layer: str) -> np.ndarray:
        vals = [s.activation.ravel() for s in self.samples if s.layer == layer]
        return np.concatenate(vals) if vals else np.empty(0)


def draw_cells(profile: LayerVarianceProfile, K: int, rng: nc.RngStream,
               tau_var: float = None):
    """Draw K (layer, timestep) cells i.i.d. from the profile's probabilities.

    Cells whose variance is below tau_var are ineligible; if nothing
    qualifies, tau_var is halved (at most 64 times) until something
    does.  Drawing from the renormalized eligible-cell distribution is
    equivalent to rejection sampling from the full one and cannot
    livelock.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    tau = profile.tau_var if tau_var is None else float(tau_var)
    cells = profile.cells
    variances = np.array([profile.variances[c] for c in cells])
    p = profile.probability_vector()
    eligible = variances >= tau
    halvings = 0
    while not np.any(eligible):
        tau /= 2.0
        halvings += 1
        eligible = variances >= tau
        if halvings >= MAX_TAU_HALVINGS and not np.any(eligible):
            raise DegenerateProfileError(
                f"no cell reached the variance threshold after {MAX_TAU_HALVINGS} halvings")
    p_eff = np.where(eligible, p, 0.0)
    total = p_eff.sum()
    if total <= 0.0:
        # eligible cells can carry zero probability only on an all-zero profile
        p_eff = eligible.astype(np.float64)
        total = p_eff.sum()
    p_eff = p_eff / total
    idx = rng.categorical(p_eff, K)
    return [cells[i] for i in idx], tau, halvings


def normal_timestep_cells(layers, T: int, K: int, rng: nc.RngStream, mu_frac: float = 0.5,
                          sigma_frac: float = 0.25):
    """K cells: timesteps ~ N(mu_frac T, (sigma_frac T)^2) rounded into 1..T, layers uniform."""
    if not (0.0 < mu_frac < 1.0):
        raise ValueError("mu_frac must lie in (0, 1)")
    z = rng.standard_normal(K)
    ts = np.clip(np.rint(mu_frac * T + sigma_frac * T * z), 1, T).astype(int)
    li = rng.integers(0, len(layers), size=K)
    return [(layers[l], int(t)) for l, t in zip(li, ts)]


class Draw(NamedTuple):  # one strategy's cells, before capture
    strategy: str
    cells: list  # (layer, timestep) per sample
    profile_hash: str
    extra: dict


def draw(strategy: str, model, sched, K: int, rng: nc.RngStream, profile=None) -> Draw:
    """The strategy's K cells, drawn from rng.child(1); variance_aware needs ``profile``."""
    if K < 1 or strategy not in STRATEGIES:
        raise ValueError(f"cannot draw K={K} cells by {strategy!r}: need K >= 1, a known strategy")
    drng, layers = rng.child(1), model.layer_names
    if strategy == "variance_aware":
        cells, tau_used, halvings = draw_cells(profile, K, drng)
        return Draw(strategy, cells, profile.content_hash(),
                    {"tau_var_used": tau_used, "tau_halvings": halvings})
    if strategy == "random_uniform":  # uniform over layers x timesteps
        li, ti = drng.integers(0, len(layers), size=K), drng.integers(1, sched.T + 1, size=K)
        return Draw(strategy, [(layers[l], int(t)) for l, t in zip(li, ti)], "", {})
    extra = {"mu_frac": 0.5, "sigma_frac": 0.25}
    return Draw(strategy, normal_timestep_cells(layers, sched.T, K, drng, **extra), "", extra)


def _capture(model, sched, conds: np.ndarray, timesteps, layers, rngs, batch: int = CAPTURE_BATCH):
    """Replay every chain once; return each request's activation.

    Chain c drives ``batch`` rows with condition conds[c] from stream rngs[c].
    Request r reads chain r % len(rngs): the input of layer layers[r] on the
    chain's own step at t = timesteps[r], whose forward is on (x_t, t).  A
    chain stops after the step at its smallest requested t.  Chains replay in
    groups of at most CAPTURE_ROWS rows, which bounds the working memory.
    """
    n = len(rngs)
    t_min = np.full(n, sched.T + 1)
    np.minimum.at(t_min, np.arange(len(timesteps)) % n, timesteps)
    order = np.argsort(t_min, kind="stable")  # ascending stops keep running rows a prefix
    pos = np.argsort(order)  # chain c is the pos[c]-th to stop
    per = max(CAPTURE_ROWS // batch, 1)  # chains per replay group
    width = {lyr.name: lyr.weight.shape[0] for lyr in model.layers}
    acts = [np.empty((batch, width[layer])) for layer in layers]  # allocated before the replay
    wanted = {}  # (group, layer, t) -> [(request, slot of its chain in the group)]
    for r, (layer, t) in enumerate(zip(layers, timesteps)):
        g, j = divmod(int(pos[r % n]), per)
        wanted.setdefault((g, layer, int(t)), []).append((r, j))
    for g in range(-(-n // per)):
        group = order[g * per:(g + 1) * per]

        def offer(layer, t, h):
            for r, j in wanted.get((g, layer, t), ()):
                acts[r][...] = h[j * batch:(j + 1) * batch]

        reverse_chains(model, sched, np.repeat(conds[group], batch, axis=0),
                       chain_noise([rngs[c] for c in group], sched.T, model.data_dim, rows=batch),
                       tap=SimpleNamespace(offer=offer), stop=np.repeat(t_min[group] - 1, batch))
    return acts


def build_sets(model, sched, prompts, draws, rng: nc.RngStream) -> list:
    """One calibration set per draw, all captured in one replay of their chains.

    Every draw holds K cells.  Sample i of each set reads chain i: stream
    rng.child(1000, i) and the condition of prompt i mod min(K, n_prompts), so
    every prompt contributes and a set built with others equals the set built alone.
    """
    if not prompts.prompts:
        raise ValueError("prompt set is empty")
    K = len(draws[0].cells)
    if any(len(d.cells) != K for d in draws):
        raise ValueError("calibration sets built together must share K")
    used = prompts.prompts[:K]
    table = np.array([condition_embedding(p.text, p.bits, model.cond_embed_dim) for p in used])
    layers, timesteps = zip(*[c for d in draws for c in d.cells])
    acts = _capture(model, sched, table[np.arange(K) % len(used)], timesteps, layers,
                    [rng.child(1000, i) for i in range(K)])
    mhash, seed_key = model_hash(model, sched), (rng.seed, rng.stream_id)
    return [CalibrationSet(
        samples=[CalibrationSample(used[i % len(used)].prompt_id, t, layer, acts[s * K + i])
                 for i, (layer, t) in enumerate(d.cells)],
        K=K, strategy=d.strategy, seed_key=seed_key, profile_hash=d.profile_hash,
        model_hash=mhash, extra=d.extra) for s, d in enumerate(draws)]


def _sample_docs(cs: CalibrationSet) -> list:
    return [{"prompt_id": s.prompt_id, "layer": s.layer, "timestep": s.timestep,
             "activation": encode_array(s.activation)} for s in cs.samples]


def save_calibration_set(cs: CalibrationSet, path) -> None:
    write_json(path, {"format_version": CALIBSET_FORMAT_VERSION, "strategy": cs.strategy,
                      "K": cs.K, "seed_key": list(cs.seed_key), "profile_hash": cs.profile_hash,
                      "model_hash": cs.model_hash, "extra": cs.extra, "samples": _sample_docs(cs)})


def load_calibration_set(path) -> CalibrationSet:
    doc = read_json(path)
    if doc.get("format_version") != CALIBSET_FORMAT_VERSION:
        raise ConfigError(f"{path} has calibration set format_version {doc.get('format_version')!r},"
                          f" not {CALIBSET_FORMAT_VERSION}; rerun the calibset command")
    try:
        samples = [CalibrationSample(prompt_id=d["prompt_id"], layer=d["layer"],
                                     timestep=d["timestep"], activation=decode_array(d["activation"]))
                   for d in doc["samples"]]
        return CalibrationSet(samples=samples, K=doc["K"], strategy=doc["strategy"],
                              seed_key=tuple(doc["seed_key"]), profile_hash=doc["profile_hash"],
                              model_hash=doc["model_hash"], extra=doc["extra"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is truncated or malformed: {exc!r}") from exc


def calibration_set_hash(cs: CalibrationSet) -> str:
    """sha256 of the strategy, K and the samples as the file encodes them."""
    return doc_hash({"strategy": cs.strategy, "K": cs.K, "samples": _sample_docs(cs)})
