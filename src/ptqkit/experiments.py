"""Pipeline commands: train, profile, prompts, calibset, quantize, and the
three paper-style experiments (bitwidth sweep, sampling-strategy
comparison, prompt-count scaling) plus report generation.

Every command is a pure function of its config; artifacts carry no
timestamps, so reruns with the same config and seed hash identically.
Wall time is recorded in the results ledger but excluded from hashing.
"""

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import artifacts as art
from . import calibration as cal
from . import coverage as cov
from . import diffusion as dif
from . import metrics as met
from . import numeric_core as nc
from . import profiler as prof
from . import quantizer as qz
from .config import ExperimentConfig
from .errors import ConfigError

RESULTS_FILE = "results.jsonl"
# header of each experiment's table; report gathers the records' rows under it
TABLES = {
    "sweep": ("policy", "mean_fd", "mean_mse"),
    "compare": ("strategy", "seed", "fd", "kl", "mse"),
    "scale": ("n_prompts", "mean_fd", "n_uncovered", "uncovered"),
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def load_aspects(cfg: ExperimentConfig) -> cov.AspectSet:
    return cov.AspectSet.from_file(cfg.lexicon) if cfg.lexicon else cov.AspectSet.default()


def build_prompts(cfg: ExperimentConfig, aspects: cov.AspectSet):
    """Seed prompts (file or empty) augmented to full coverage with the mock."""
    if cfg.seed_prompts:
        seed_set = cov.load_prompt_set(cfg.seed_prompts)
        if any(len(p.bits) != len(aspects) for p in seed_set.prompts):
            raise ConfigError(f"seed prompts {cfg.seed_prompts} carry coverage bits for another "
                              f"aspect set than the {len(aspects)} aspects in use")
    else:
        seed_set = cov.PromptSet(prompts=[], role="random_seed_set")
    gen = cov.MockCaptionGenerator(aspects, seed=cfg.seed)
    final, report = cov.augment(seed_set, aspects, gen, i_max=cfg.i_max,
                                tau_redundancy=cfg.tau_redundancy)
    return final, report


def load_or_build_prompts(cfg: ExperimentConfig, aspects: cov.AspectSet) -> cov.PromptSet:
    path = cfg.resolved_prompts_file()
    if os.path.exists(path):
        return cov.load_prompt_set(path)
    final, _ = build_prompts(cfg, aspects)
    return final

def _require_checkpoint(cfg: ExperimentConfig):
    path = cfg.resolved_checkpoint()
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path} (run the train command first)")
    return dif.load_checkpoint(path)


def _conds_for(prompts: cov.PromptSet, cond_dim: int):
    return [dif.condition_embedding(p.text, p.bits, cond_dim) for p in prompts.prompts]


def _chain_rows(prompts: cov.PromptSet, cond_dim: int, per: int, rng: nc.RngStream, T: int,
                data_dim: int):
    """Condition rows and noise of ``per`` chains per prompt; chain c of prompt i
    draws from rng.child(i, c)."""
    conds = np.array(_conds_for(prompts, cond_dim)).reshape(-1, cond_dim)
    rngs = [rng.child(i, c) for i in range(len(conds)) for c in range(per)]
    return np.repeat(conds, per, axis=0), dif.chain_noise(rngs, T, data_dim)


def make_schedule(cfg: ExperimentConfig) -> dif.NoiseSchedule:
    return {"linear_beta": dif.NoiseSchedule.linear_beta,
            "cosine": dif.NoiseSchedule.cosine}[cfg.schedule](cfg.timesteps)


def append_result(cfg: ExperimentConfig, command: str, payload: dict, wall_time_s: float) -> dict:
    """Record a command run in ``results.jsonl``; a rerun replaces its record in place."""
    record = {
        "run_id": f"{command}-{cfg.config_hash()[:12]}",
        "command": command,
        "config_hash": cfg.config_hash(),
        "toolkit_version": __version__,
        "policy": "",
        "size": {},
        **payload,
        "wall_time_s": wall_time_s,
    }
    path = os.path.join(cfg.out_dir, RESULTS_FILE)
    records = _records_by_run_id(path) if os.path.exists(path) else {}
    records[record["run_id"]] = record
    art.write_jsonl(path, records.values())
    return record


def _records_by_run_id(path: str) -> dict:
    """Records of a results file keyed by run_id, in first-seen order.  A later
    line of the same run_id (older versions appended reruns) replaces the earlier."""
    return {rec.get("run_id"): rec for rec in art.read_jsonl(path)}


def artifact_hashes(out_dir: str) -> dict:
    """sha256 per artifact; results records are canonicalized without wall time."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue
        if name == RESULTS_FILE:  # wall time is the only nondeterministic field
            blob = "\n".join(
                json.dumps({k: v for k, v in rec.items() if k != "wall_time_s"}, sort_keys=True)
                for rec in _records_by_run_id(path).values()).encode()
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def _map_seeds(fn, seeds, jobs: int):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, seeds))
    return [fn(s) for s in seeds]


# ---------------------------------------------------------------------------
# pipeline commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig) -> dict:
    t0 = time.monotonic()
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    conds = _conds_for(prompts, cfg.cond_embed_dim)
    sched = make_schedule(cfg)
    rng = nc.RngStream(cfg.seed, 1)
    dataset, row_conds = dif.make_mixture_dataset(conds, cfg.n_train_per_prompt, rng.child(1),
                                                  data_dim=cfg.data_dim)
    if len(dataset) < cfg.batch_size:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds the {len(dataset)} training rows "
                          f"({len(prompts.prompts)} prompts x n_train_per_prompt)")
    model = dif.DenoiserModel.create(cfg.data_dim, tuple(cfg.hidden), cfg.time_embed_dim,
                                     cfg.cond_embed_dim, rng=rng.child(2))
    hyper = dif.TrainConfig(learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                            batch_size=cfg.batch_size)
    result = dif.train(model, dataset, row_conds, sched, hyper, rng.child(3))
    dif.save_checkpoint(result.model, sched, cfg.resolved_checkpoint())
    art.write_tsv(os.path.join(cfg.out_dir, "loss_trace.tsv"), ("epoch", "loss"),
                  list(enumerate(result.losses)))
    payload = {"policy": "32W32A",
               "metrics": {"final_loss": result.losses[-1] if result.losses else None}}
    return append_result(cfg, "train", payload, time.monotonic() - t0)


def cmd_prompts(cfg: ExperimentConfig) -> dict:
    t0 = time.monotonic()
    aspects = load_aspects(cfg)
    final, report = build_prompts(cfg, aspects)
    cov.save_prompt_set(final, cfg.resolved_prompts_file())
    report_doc = {**dataclasses.asdict(report), "n_prompts": len(final.prompts)}
    art.write_json(os.path.join(cfg.out_dir, "coverage_report.json"), report_doc, indent=2)
    return append_result(cfg, "prompts", {"metrics": report_doc}, time.monotonic() - t0)


def _profile_for(model, sched, prompts, cfg: ExperimentConfig, seed: int):
    tap = prof.ActivationTap()
    conds, noise = _chain_rows(prompts, cfg.cond_embed_dim, cfg.n_profile_chains,
                               nc.RngStream(seed, 41), sched.T, model.data_dim)
    dif.reverse_chains(model, sched, conds, noise, tap=tap)
    return prof.build_profile(tap, tau_fraction=cfg.tau_fraction)


def pipeline_profile(cfg: ExperimentConfig, model, sched, prompts):
    """The variance profile of calibset and compare: <out_dir>/profile.tsv when it
    exists, else the profile built at cfg.seed; floored at cfg.tau_fraction either way.
    A file cell outside the model's layers x timesteps 1..T is a ConfigError."""
    path = os.path.join(cfg.out_dir, "profile.tsv")
    if not os.path.exists(path):
        return _profile_for(model, sched, prompts, cfg, cfg.seed)
    profile = prof.load_profile(path, cfg.tau_fraction)
    for layer, t in profile.cells:
        if layer not in model.layer_names or not 1 <= t <= sched.T:
            raise ConfigError(f"{path}: cell ({layer}, {t}) is outside the model's grid of "
                              f"layers {', '.join(model.layer_names)} x timesteps 1..{sched.T}")
    return profile


def cmd_profile(cfg: ExperimentConfig) -> dict:
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    profile = _profile_for(model, sched, prompts, cfg, cfg.seed)
    prof.export_profile(profile, os.path.join(cfg.out_dir, "profile.tsv"))
    payload = {"metrics": {"cells": len(profile.cells), "tau_var": profile.tau_var}}
    return append_result(cfg, "profile", payload, time.monotonic() - t0)


def _calibsets(cfg: ExperimentConfig, model, sched, prompts, strategies, seed: int,
               profile) -> list:
    """One calibration set of cfg.k samples per strategy, built together from stream
    (seed, 50); variance_aware draws from ``profile``, the baselines need none."""
    rng = nc.RngStream(seed, 50)
    draws = [cal.draw(s, model, sched, cfg.k, rng, profile) for s in strategies]
    return cal.build_sets(model, sched, prompts, draws, rng)


def cmd_calibset(cfg: ExperimentConfig) -> dict:
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    profile = pipeline_profile(cfg, model, sched, prompts) \
        if cfg.strategy == "variance_aware" else None
    cs, = _calibsets(cfg, model, sched, prompts, (cfg.strategy,), cfg.seed, profile)
    cal.save_calibration_set(cs, os.path.join(cfg.out_dir, "calibset.json"))
    payload = {"metrics": {"strategy": cs.strategy, "K": cs.K,
                           "set_hash": cal.calibration_set_hash(cs)}}
    return append_result(cfg, "calibset", payload, time.monotonic() - t0)


def cmd_quantize(cfg: ExperimentConfig) -> dict:
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    _, ab = qz.parse_policy_string(cfg.policy)
    policy = qz.PrecisionPolicy.uniform(model.layer_names, cfg.policy)
    calib = None
    if ab != qz.FULL:
        path = os.path.join(cfg.out_dir, "calibset.json")
        if not os.path.exists(path):
            raise ConfigError(f"calibration set not found: {path} (run the calibset command first)")
        calib = cal.load_calibration_set(path)
    qmodel = qz.quantize_model(model, policy, calib, method=cfg.act_range_method,
                               percentile=cfg.act_percentile)
    full_b, quant_b, red = qz.model_size_bytes(model, policy)
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    quality = evaluate_pair(model, qmodel.model, sched, prompts, cfg.cond_embed_dim,
                            cfg.n_eval, cfg.seed)
    # saved once the evaluation succeeded, so a failed quantize writes nothing
    qz.save_quantized_checkpoint(qmodel, sched, os.path.join(cfg.out_dir, "model_quantized.json"))
    payload = {
        "policy": policy.notation,
        "metrics": quality,
        "size": {"full_bytes": full_b, "quantized_bytes": quant_b, "reduction_pct": red},
    }
    return append_result(cfg, "quantize", payload, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_models(model, qmodels, sched, prompts, cond_dim: int, n_eval: int, seed: int):
    """Paired generation: ``model`` and each of ``qmodels`` replay the same chain noise
    -> FD, KL, and output MSE per quantized model.  The chains take one reverse pass
    of all models as one stack, or two when ``model`` quantizes other layers' inputs
    than ``qmodels``, which all quantize the same layers' inputs."""
    per = max(n_eval // len(prompts.prompts), 1)
    if per * len(prompts.prompts) < 2:
        raise ConfigError(f"n_eval {n_eval} with {len(prompts.prompts)} prompt(s) gives one "
                          "evaluation chain; FD and KL need at least two")
    conds, noise = _chain_rows(prompts, cond_dim, per, nc.RngStream(seed, 60), sched.T,
                               model.data_dim)
    models = [model, *qmodels]
    layouts = {tuple(lyr.quantizer is None for lyr in m.layers) for m in models}
    stacks = [models] if len(layouts) == 1 else [models[:1], models[1:]]
    full, *quants = np.concatenate([dif.reverse_chains(qz.stack_models(s), sched, conds, noise)
                                    for s in stacks])
    fa = met.fit_gaussian(full)
    out = []
    for quant in quants:
        fb = met.fit_gaussian(quant)
        out.append({
            "fd": met.frechet_distance(fa, fb),
            "kl": met.kl_gaussian(fb, fa),
            "mse": float(np.mean((full - quant) ** 2)),
        })
    return out


def evaluate_pair(model, qmodel, sched, prompts, cond_dim: int, n_eval: int, seed: int):
    """:func:`evaluate_models` for one model."""
    return evaluate_models(model, [qmodel], sched, prompts, cond_dim, n_eval, seed)[0]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: ExperimentConfig) -> dict:
    """Weight-only quantization at each bitwidth, no calibration."""
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    seeds = [cfg.seed + i for i in range(cfg.sweep_seeds)]
    policies = ["32WfullA"] + [f"{b}WfullA" for b in cfg.sweep_bits]
    qmodels = [qz.quantize_model(model, qz.PrecisionPolicy.uniform(model.layer_names, pol)).model
               for pol in policies]

    def _one(seed):  # one task per seed: all policies share its full-precision chains
        return evaluate_models(model, qmodels, sched, prompts, cfg.cond_embed_dim, cfg.n_eval,
                               seed)

    by_seed = _map_seeds(_one, seeds, cfg.jobs)
    per_seed_rows = []
    rows = []
    for pol, results in zip(policies, zip(*by_seed)):
        for s, r in zip(seeds, results):
            per_seed_rows.append((pol, s, r["fd"], r["mse"]))
        rows.append((pol, float(np.mean([r["fd"] for r in results])),
                     float(np.mean([r["mse"] for r in results]))))
    art.write_tsv(os.path.join(cfg.out_dir, "sweep.tsv"), TABLES["sweep"], rows)
    art.write_tsv(os.path.join(cfg.out_dir, "sweep_per_seed.tsv"),
                  ("policy", "seed", "fd", "mse"), per_seed_rows)
    payload = {
        "policy": ",".join(policies),
        "metrics": {"kind": "sweep", "rows": [list(r) for r in rows],
                    "per_seed": [list(r) for r in per_seed_rows]},
    }
    return append_result(cfg, "sweep", payload, time.monotonic() - t0)


def _score_sets(cfg: ExperimentConfig, model, sched, prompts, sets, seed: int) -> list:
    """Quantize ``model`` at cfg.policy with each calibration set; score every
    quantized model against one full-precision batch."""
    policy = qz.PrecisionPolicy.uniform(model.layer_names, cfg.policy)
    qmodels = [qz.quantize_model(model, policy, cs, method=cfg.act_range_method,
                                 percentile=cfg.act_percentile).model for cs in sets]
    return evaluate_models(model, qmodels, sched, prompts, cfg.cond_embed_dim, cfg.n_eval, seed)


def compare_one_seed(cfg: ExperimentConfig, model, sched, prompts, seed: int, profile,
                     write_sets: bool = False) -> dict:
    # The profile characterizes the model, so it is shared across comparison
    # seeds; only the calibration draw and evaluation chains vary with seed.
    sets = _calibsets(cfg, model, sched, prompts, cal.STRATEGIES, seed, profile)
    if write_sets:
        for cs in sets:
            cal.save_calibration_set(cs, os.path.join(cfg.out_dir, f"calibset_{cs.strategy}.json"))
    return dict(zip(cal.STRATEGIES, _score_sets(cfg, model, sched, prompts, sets, seed)))


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Random vs normal vs variance-aware calibration at equal K."""
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    prompts = load_or_build_prompts(cfg, load_aspects(cfg))
    seeds = [cfg.seed + i for i in range(cfg.compare_seeds)]
    profile = pipeline_profile(cfg, model, sched, prompts)

    def _one(seed):
        return compare_one_seed(cfg, model, sched, prompts, seed, profile,
                                write_sets=(seed == seeds[0]))

    results = _map_seeds(_one, seeds, cfg.jobs)
    rows = [(st, s, res[st]["fd"], res[st]["kl"], res[st]["mse"])
            for s, res in zip(seeds, results) for st in cal.STRATEGIES]
    art.write_tsv(os.path.join(cfg.out_dir, "compare.tsv"), TABLES["compare"], rows)
    means = {st: float(np.mean([res[st]["fd"] for res in results])) for st in cal.STRATEGIES}
    payload = {"policy": cfg.policy,
               "metrics": {"kind": "compare", "mean_fd": means, "rows": [list(r) for r in rows]}}
    return append_result(cfg, "compare", payload, time.monotonic() - t0)


def build_prompt_set_of_size(aspects: cov.AspectSet, n: int, seed: int) -> cov.PromptSet:
    """Exactly n mock-generated prompts, cycling through the aspects."""
    gen = cov.MockCaptionGenerator(aspects, seed=seed)
    prompts = []
    i = 0
    while len(prompts) < n:
        aspect = aspects.aspects[i % len(aspects)]
        text = gen.generate(aspect, [p.text for p in prompts])
        bits = cov.compute_coverage_vector(text, aspects)
        prompts.append(cov.Prompt(prompt_id=f"gen-{i:04d}", text=text, bits=bits))
        i += 1
    return cov.PromptSet(prompts=prompts, role="final_set")


def cmd_scale(cfg: ExperimentConfig) -> dict:
    """FD as a function of the calibration prompt-set size."""
    t0 = time.monotonic()
    model, sched = _require_checkpoint(cfg)
    aspects = load_aspects(cfg)
    eval_prompts = load_or_build_prompts(cfg, aspects)
    seeds = [cfg.seed + i for i in range(cfg.scale_seeds)]
    calib_prompts = [build_prompt_set_of_size(aspects, n, cfg.seed) for n in cfg.scale_counts]

    def _one(seed):  # one task per seed: every count's model shares its evaluation chains
        sets = [_calibsets(cfg, model, sched, cp, ("variance_aware",), seed,
                           _profile_for(model, sched, cp, cfg, seed))[0] for cp in calib_prompts]
        return _score_sets(cfg, model, sched, eval_prompts, sets, seed)

    rows = []
    by_seed = _map_seeds(_one, seeds, cfg.jobs)
    for n, cp, results in zip(cfg.scale_counts, calib_prompts, zip(*by_seed)):
        covered = cov.global_coverage(cp)
        uncovered = [a.aspect_id for i, a in enumerate(aspects) if not covered[i]]
        rows.append((n, float(np.mean([r["fd"] for r in results])), len(uncovered),
                     ";".join(uncovered)))
    art.write_tsv(os.path.join(cfg.out_dir, "scale.tsv"), TABLES["scale"], rows)
    payload = {"policy": cfg.policy, "metrics": {"kind": "scale", "rows": [list(r) for r in rows]}}
    return append_result(cfg, "scale", payload, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def read_results(results_dir: str):
    path = os.path.join(results_dir, RESULTS_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"no results file at {path}")
    records = list(_records_by_run_id(path).values())
    if not records:
        raise ConfigError(f"results file {path} is empty")
    return records


def cmd_report(results_dir: str, out_dir: str = None) -> dict:
    """Summary table grouped by policy plus per-figure data files.

    Pure function of the results records (wall time ignored), so
    regeneration from the same directory is byte-identical.
    """
    out_dir = out_dir or results_dir
    records = read_results(results_dir)

    by_policy = {}
    for rec in records:
        pol = rec.get("policy") or ""
        if not pol or "," in pol:
            continue
        metrics = rec.get("metrics", {})
        size = rec.get("size", {})
        slot = by_policy.setdefault(pol, {"fd": [], "kl": [], "reduction": []})
        if "fd" in metrics:
            slot["fd"].append(metrics["fd"])
        if "mean_fd" in metrics and isinstance(metrics["mean_fd"], dict):
            # comparison records contribute the variance-aware strategy only;
            # the baselines are figure data, not policy quality
            if "variance_aware" in metrics["mean_fd"]:
                slot["fd"].append(metrics["mean_fd"]["variance_aware"])
        if "kl" in metrics:
            slot["kl"].append(metrics["kl"])
        if "reduction_pct" in size:
            slot["reduction"].append(size["reduction_pct"])
    summary_rows = []
    for pol in sorted(by_policy):
        slot = by_policy[pol]
        summary_rows.append((
            pol,
            float(np.mean(slot["reduction"])) if slot["reduction"] else "",
            float(np.mean(slot["fd"])) if slot["fd"] else "",
            float(np.mean(slot["kl"])) if slot["kl"] else "",
            "n/a",  # FAD needs an audio embedding; out of scope at desk scale
        ))
    art.write_tsv(os.path.join(out_dir, "summary.tsv"),
                  ("policy", "size_reduction_pct", "fd", "kl", "fad"), summary_rows)

    figures = {"sweep": "fig_bitwidth_sweep.tsv", "compare": "fig_strategy_comparison.tsv",
               "scale": "fig_prompt_scaling.tsv"}
    written = ["summary.tsv"]
    for kind, fname in figures.items():
        rows = []
        for rec in records:
            metrics = rec.get("metrics", {})
            if metrics.get("kind") == kind:
                rows.extend(tuple(r) for r in metrics.get("rows", []))
        if rows:
            art.write_tsv(os.path.join(out_dir, fname), TABLES[kind], rows)
            written.append(fname)
    return {"written": written, "n_records": len(records)}
