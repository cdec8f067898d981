"""Experiment configuration: one JSON file, every CLI flag overrides a key.

Precedence: built-in defaults < config file < CLI flags.  The config
hash is derived from the effective (post-override) content, so a record
in the results file pins down exactly what produced it.  ``jobs`` is left
out of the hash: it changes how seeds are scheduled, never the results.
"""

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .artifacts import doc_hash, read_json
from .calibration import STRATEGIES
from .errors import ConfigError
from .quantizer import SUPPORTED_BITWIDTHS, parse_policy_string


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    checkpoint: str = ""  # empty -> <out_dir>/model.json
    lexicon: str = ""  # empty -> packaged default aspect set
    seed_prompts: str = ""  # optional prompt-set file used to seed augmentation
    prompts_file: str = ""  # empty -> <out_dir>/prompts.tsv
    policy: str = "8W8A"
    strategy: str = "variance_aware"
    k: int = 256
    tau_fraction: float = 0.10
    i_max: int = 10
    tau_redundancy: int = 0

    # toy model / schedule
    timesteps: int = 50
    schedule: str = "linear_beta"
    data_dim: int = 2
    hidden: list = field(default_factory=lambda: [64, 64, 64])
    time_embed_dim: int = 8
    cond_embed_dim: int = 8

    # training
    epochs: int = 2500
    learning_rate: float = 0.08
    batch_size: int = 64
    n_train_per_prompt: int = 64

    # evaluation / experiments
    n_eval: int = 64
    n_profile_chains: int = 2
    act_range_method: str = "percentile"
    act_percentile: float = 99.9
    sweep_bits: list = field(default_factory=lambda: [16, 8, 4])
    sweep_seeds: int = 5
    compare_seeds: int = 10
    scale_counts: list = field(default_factory=lambda: [1, 2, 4, 8, 16, 32])
    scale_seeds: int = 3
    jobs: int = 1  # not hashed, see config_hash

    def resolved_checkpoint(self) -> str:
        return self.checkpoint or os.path.join(self.out_dir, "model.json")

    def resolved_prompts_file(self) -> str:
        return self.prompts_file or os.path.join(self.out_dir, "prompts.tsv")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        return doc_hash({k: v for k, v in self.to_dict().items() if k != "jobs"})


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def load_config(path=None, overrides: dict = None) -> ExperimentConfig:
    """Defaults, then the config file, then CLI overrides."""
    values = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, val in doc.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            values[key] = val
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(ok, empty_ok=False):
    return lambda v: isinstance(v, list) and (empty_ok or v) and all(_is_int(x) and ok(x) for x in v)


def validate_config(cfg: ExperimentConfig) -> None:
    for name, low in (("seed", 0), ("k", 1), ("i_max", 1), ("tau_redundancy", 0),
                      ("timesteps", 2), ("data_dim", 1), ("time_embed_dim", 2),
                      ("cond_embed_dim", 1), ("epochs", 1), ("batch_size", 1),
                      ("n_train_per_prompt", 1), ("n_eval", 1), ("n_profile_chains", 1),
                      ("sweep_seeds", 1), ("compare_seeds", 1), ("scale_seeds", 1)):
        value = getattr(cfg, name)
        if not _is_int(value) or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    if cfg.time_embed_dim % 2:
        # the sinusoidal embedding is sin/cos pairs, so the model input width needs it even
        raise ConfigError(f"time_embed_dim must be even, got {cfg.time_embed_dim}")
    number = lambda v: _is_int(v) or isinstance(v, float)  # noqa: E731
    one_of = lambda *opts: (f"one of {opts}", lambda v: v in opts)  # noqa: E731
    for name, what, ok in (
            ("strategy", *one_of(*STRATEGIES)),
            ("schedule", *one_of("linear_beta", "cosine")),
            ("act_range_method", *one_of("minmax", "percentile")),
            ("learning_rate", "a finite number > 0", lambda v: number(v) and 0 < v < math.inf),
            ("tau_fraction", "a number in [0, 1]", lambda v: number(v) and 0 <= v <= 1),
            ("act_percentile", "a number in (50, 100]", lambda v: number(v) and 50 < v <= 100),
            ("hidden", "a list of positive integers", _int_list(lambda x: x >= 1, empty_ok=True)),
            ("scale_counts", "a non-empty list of positive integers", _int_list(lambda x: x >= 1)),
            ("sweep_bits", f"a non-empty list of bitwidths in {SUPPORTED_BITWIDTHS}",
             _int_list(lambda x: x in SUPPORTED_BITWIDTHS))):
        if not ok(getattr(cfg, name)):
            raise ConfigError(f"{name} must be {what}, got {getattr(cfg, name)!r}")
    try:
        parse_policy_string(cfg.policy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for attr in ("lexicon", "seed_prompts"):
        p = getattr(cfg, attr)
        if p and not os.path.exists(p):
            raise ConfigError(f"{attr} path does not exist: {p}")
