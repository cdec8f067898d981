"""Calibration-set builders: variance-aware plus the two baseline samplers.

A calibration sample is the input activation of one layer at one
timestep of one prompt's reverse chain, captured by replaying the chain
from pure noise down to the sampled timestep.  Each sample replays a
small batch of chains so the activation payload carries enough rows to
pin down the layer's value range.  All replays of a set run together in
one batched reverse chain, and each sample's rows leave it on reaching
the sample's timestep.  Replay is exact because every sample's chains
are keyed by (base stream, sample index).
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import numeric_core as nc
from .artifacts import decode_array, doc_hash, encode_array, read_json, write_json
from .diffusion import chain_noise, condition_embedding, model_hash, reverse_chains
from .errors import ConfigError, DegenerateProfileError
from .profiler import LayerVarianceProfile

CALIBSET_FORMAT_VERSION = 2  # activations as encode_array text
MAX_TAU_HALVINGS = 64
CAPTURE_BATCH = 8  # chains replayed per calibration sample

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


def _capture(model, sched, conds: np.ndarray, timesteps, layers, rngs, batch: int = CAPTURE_BATCH):
    """Replay all samples' chains together; return each sample's activation.

    Sample i drives ``batch`` rows with condition conds[i] from stream
    rngs[i]; they leave the batch on reaching timesteps[i].  One forward
    pass over those states, each row at its own timestep, then gives each
    sample the input of its layer.
    """
    order = np.argsort(timesteps, kind="stable")  # ascending stops keep running rows a prefix
    stop = np.repeat(np.asarray(timesteps)[order], batch)
    rows = np.repeat(conds[order], batch, axis=0)
    noise = chain_noise([rngs[i] for i in order], sched.T, model.data_dim, rows=batch)
    latents = reverse_chains(model, sched, rows, noise, stop=stop)
    del noise  # freed before the snapshot pass, which is as wide as the first step
    acts = [None] * len(order)

    def offer(layer, t, h):
        for j, i in enumerate(order):
            if layers[i] == layer:
                acts[i] = h[j * batch:(j + 1) * batch].copy()

    model.forward(model.assemble_input(latents, stop, rows, sched.T), tap=SimpleNamespace(offer=offer))
    return acts


def _build_set(model, sched, prompts, cells, rng, strategy, K, profile_hash="", extra=None):
    if not prompts.prompts:
        raise ValueError("prompt set is empty")
    used = prompts.prompts[:len(cells)]  # round-robin, so every prompt contributes
    idx = np.arange(len(cells)) % len(used)
    table = np.array([condition_embedding(p.text, p.bits, model.cond_embed_dim) for p in used])
    ps, conds = [used[i] for i in idx], table[idx]
    layers, timesteps = zip(*cells)
    acts = _capture(model, sched, conds, timesteps, layers,
                    [rng.child(1000, i) for i in range(len(cells))])
    samples = [CalibrationSample(prompt_id=p.prompt_id, timestep=t, layer=layer, activation=act)
               for p, (layer, t), act in zip(ps, cells, acts)]
    return CalibrationSet(samples=samples, K=K, strategy=strategy,
                          seed_key=(rng.seed, rng.stream_id), profile_hash=profile_hash,
                          model_hash=model_hash(model, sched), extra=extra or {})


def sample_calibration_set(model, profile: LayerVarianceProfile, prompts, K: int,
                           rng: nc.RngStream, sched) -> CalibrationSet:
    """Variance-aware sampling: cells drawn from P with the tau_var floor."""
    cells, tau_used, halvings = draw_cells(profile, K, rng.child(1))
    return _build_set(model, sched, prompts, cells, rng, "variance_aware", K,
                      profile_hash=profile.content_hash(),
                      extra={"tau_var_used": tau_used, "tau_halvings": halvings})


def sample_random_uniform(model, prompts, K: int, rng: nc.RngStream, sched) -> CalibrationSet:
    """Baseline: cells uniform over layers x timesteps."""
    if K < 1:
        raise ValueError("K must be >= 1")
    layers = model.layer_names
    drng = rng.child(1)
    li = drng.integers(0, len(layers), size=K)
    ti = drng.integers(1, sched.T + 1, size=K)
    cells = [(layers[l], int(t)) for l, t in zip(li, ti)]
    return _build_set(model, sched, prompts, cells, rng, "random_uniform", K)


def sample_normal_timestep(model, prompts, K: int, rng: nc.RngStream, sched,
                           mu_frac: float = 0.5, sigma_frac: float = 0.25) -> CalibrationSet:
    """Baseline: timesteps from a clipped discretized normal, layers uniform."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0.0 < mu_frac < 1.0):
        raise ValueError("mu_frac must lie in (0, 1)")
    layers = model.layer_names
    drng = rng.child(1)
    z = drng.standard_normal(K)
    ts = np.clip(np.rint(mu_frac * sched.T + sigma_frac * sched.T * z), 1, sched.T).astype(int)
    li = drng.integers(0, len(layers), size=K)
    cells = [(layers[l], int(t)) for l, t in zip(li, ts)]
    return _build_set(model, sched, prompts, cells, rng, "normal_timestep", K,
                      extra={"mu_frac": mu_frac, "sigma_frac": sigma_frac})


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
