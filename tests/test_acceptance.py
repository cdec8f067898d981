"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test exercises one criterion end to end and prints a single
verdict line (visible with ``pytest -s`` or on failure).  Tolerances
are pinned here and must not be loosened; a red criterion means the
package does not meet its contract.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from test_coverage import AdversarialCaptionGenerator
from test_metrics import oracle_frechet

from ptqkit import calibration as cal
from ptqkit import cli
from ptqkit import coverage as cov
from ptqkit import diffusion as dif
from ptqkit import experiments as exp
from ptqkit import metrics as met
from ptqkit import numeric_core as nc
from ptqkit import profiler as prof
from ptqkit import quantizer as qz
from ptqkit.config import ExperimentConfig
from ptqkit.errors import DegenerateProfileError


def _verdict(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_quantization_round_trip():
    t0 = time.monotonic()
    ok = True
    detail = ""
    rng = nc.RngStream(301)
    for bits in (4, 8, 16):
        p = qz.fit_params(np.array([-2.0, 3.0]), bits, mode="asymmetric")
        w = (-2.0 + 5.0 * rng.child(bits).uniform(10_000 * 4)).reshape(10_000, 4)
        err = float(np.max(np.abs(qz.fake_quant(w, p) - w)))
        if err > p.scale / 2.0 + 1e-12:
            ok, detail = False, f"{bits}-bit max error {err} > s/2 {p.scale / 2.0}"
    # 4-bit against the brute-force nearest-grid oracle on 100k values
    p4 = qz.fit_params(np.array([-2.0, 3.0]), 4, mode="asymmetric")
    w = (-2.0 + 5.0 * rng.child(99).uniform(100_000)).reshape(-1, 1)
    grid = p4.scale * (np.arange(p4.c_min, p4.c_max + 1) - p4.zero_point)
    nearest = grid[np.argmin(np.abs(w - grid.reshape(1, -1)), axis=1)]
    if not np.array_equal(qz.fake_quant(w, p4).ravel(), nearest):
        ok, detail = False, "4-bit disagrees with brute-force nearest-grid oracle"
    _verdict(1, "quantization round-trip", ok, time.monotonic() - t0, 10, detail)


def test_criterion_2_sampler_fidelity():
    t0 = time.monotonic()
    variances = {("layer", t): float(t) for t in range(1, 11)}  # 10-cell profile
    profile = prof.profile_from_variances(variances)
    cells, _, _ = cal.draw_cells(profile, 100_000, nc.RngStream(302))
    counts = {c: 0 for c in profile.cells}
    for c in cells:
        counts[c] += 1
    freqs = np.array([counts[c] for c in profile.cells]) / 100_000
    tv = 0.5 * float(np.abs(freqs - profile.probability_vector()).sum())

    # fallback: every cell below threshold -> halvings recover, never livelock
    tiny = prof.profile_from_variances({("layer", 1): 1e-12, ("layer", 2): 2e-12})
    _, _, halvings = cal.draw_cells(tiny, 10, nc.RngStream(303), tau_var=1.0)
    degenerate_raises = False
    try:
        cal.draw_cells(prof.profile_from_variances({("layer", 1): 0.0}), 10,
                       nc.RngStream(304), tau_var=1.0)
    except DegenerateProfileError:
        degenerate_raises = True
    ok = tv < 0.01 and 0 < halvings <= 64 and degenerate_raises
    _verdict(2, "sampler fidelity", ok, time.monotonic() - t0, 30,
             f"TV={tv:.4f}, halvings={halvings}, degenerate_raises={degenerate_raises}")


def test_criterion_3_augmentation_termination_and_coverage():
    t0 = time.monotonic()
    aspects = cov.AspectSet.default()
    gen = cov.MockCaptionGenerator(aspects, seed=0)
    final, report = cov.augment(cov.PromptSet(prompts=[]), aspects, gen,
                                i_max=10, tau_redundancy=0)
    # one coverage round means exactly |B| coverage-phase generator calls
    full = all(cov.global_coverage(final))
    adv = AdversarialCaptionGenerator()
    _, adv_report = cov.augment(cov.PromptSet(prompts=[]), aspects, adv, i_max=10)
    ok = (
        full
        and report.coverage_rounds == 1
        and report.final_redundancy <= 0
        and adv_report.coverage_rounds == 10
        and sorted(adv_report.uncovered) == sorted(a.aspect_id for a in aspects)
    )
    _verdict(3, "augmentation termination and coverage", ok, time.monotonic() - t0, 5,
             f"coverage_rounds={report.coverage_rounds}, redundancy={report.final_redundancy}, "
             f"adversarial_uncovered={len(adv_report.uncovered)}")


def test_criterion_4_metric_correctness():
    t0 = time.monotonic()
    rng = nc.RngStream(305)

    def random_fit(r, d, n=300):
        base = r.standard_normal(n * d).reshape(n, d)
        mix = r.standard_normal(d * d).reshape(d, d)
        return met.fit_gaussian(base @ mix + r.standard_normal(d))

    ok = True
    detail = []
    fit = random_fit(rng.child(0), 3)
    if met.frechet_distance(fit, fit) > 1e-9:
        ok, _ = False, detail.append("FD(a,a) > 1e-9")
    a1 = met.fit_gaussian((2.0 * rng.child(1).standard_normal(500) + 1.0).reshape(-1, 1))
    b1 = met.fit_gaussian((0.5 * rng.child(2).standard_normal(500) - 2.0).reshape(-1, 1))
    s1, s2 = math.sqrt(a1.sigma[0, 0]), math.sqrt(b1.sigma[0, 0])
    fd_closed = (a1.mu[0] - b1.mu[0]) ** 2 + (s1 - s2) ** 2
    if abs(met.frechet_distance(a1, b1) - fd_closed) > 1e-9:
        ok, _ = False, detail.append("1-D FD mismatch")
    kl_closed = (
        math.log(s2 / s1) + (s1**2 + (a1.mu[0] - b1.mu[0]) ** 2) / (2.0 * s2**2) - 0.5
    )
    if abs(met.kl_gaussian(a1, b1) - kl_closed) > 1e-9:
        ok, _ = False, detail.append("1-D KL mismatch")
    for trial in range(1000):
        pa = random_fit(rng.child(10, trial), 2, n=60)
        pb = random_fit(rng.child(11, trial), 2, n=60)
        if met.kl_gaussian(pa, pb) < -1e-10:
            ok, _ = False, detail.append(f"negative KL at trial {trial}")
            break
    max_gap = 0.0
    for trial in range(10):
        pa = random_fit(rng.child(20, trial), 3)
        pb = random_fit(rng.child(21, trial), 3)
        max_gap = max(max_gap, abs(met.frechet_distance(pa, pb) - oracle_frechet(pa, pb)))
    if max_gap > 1e-6:
        ok, _ = False, detail.append(f"3-D FD oracle gap {max_gap}")
    _verdict(4, "metric correctness", ok, time.monotonic() - t0, 10,
             "; ".join(detail) or f"oracle gap {max_gap:.2e}")


def test_criterion_5_toy_model_numerics():
    t0 = time.monotonic()
    rng = nc.RngStream(306)
    model = dif.DenoiserModel.create(2, (6,), 4, 4, rng=rng.child(0))
    assert len(model.layers) == 2
    u = rng.child(1).standard_normal(5 * 10).reshape(5, 10)
    eps = rng.child(2).standard_normal(5 * 2).reshape(5, 2)
    _, grads = dif._loss_and_grads(model, u, eps)
    h = 1e-5
    worst = 0.0
    for lyr, (gw, gb) in zip(model.layers, grads):
        for arr, grad in ((lyr.weight, gw), (lyr.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = dif.training_loss(model, u, eps)
                arr[idx] = orig - h
                down = dif.training_loss(model, u, eps)
                arr[idx] = orig
                fd = (up - down) / (2.0 * h)
                denom = max(abs(fd), abs(float(grad[idx])), 1e-8)
                worst = max(worst, abs(fd - float(grad[idx])) / denom)
    sched = dif.NoiseSchedule.linear_beta(50)
    t = 30
    out = dif.forward_diffuse(np.zeros((50_000, 2)), t, sched, nc.RngStream(307))
    expected = 1.0 - sched.alpha_bar[t - 1]
    var_gap = abs(float(out.value.var()) - expected) / expected
    ok = worst < 1e-4 and var_gap <= 0.02
    _verdict(5, "toy-model numerics", ok, time.monotonic() - t0, 60,
             f"max grad rel err {worst:.2e}, variance gap {var_gap:.4f}")


def test_criterion_6_bitwidth_sweep_trend(tmp_path, pipeline_cfg):
    t0 = time.monotonic()
    dest = tmp_path / "sweep"
    shutil.copytree(pipeline_cfg.out_dir, dest)
    cfg = ExperimentConfig(**{**pipeline_cfg.to_dict(), "out_dir": str(dest)})
    record = exp.cmd_sweep(cfg)
    per_seed = {}
    for pol, seed, fd, _ in record["metrics"]["per_seed"]:
        per_seed.setdefault(seed, {})[pol] = fd
    good = sum(
        1
        for fds in per_seed.values()
        if fds["16WfullA"] <= fds["8WfullA"] <= fds["4WfullA"]
    )
    ok = good >= 4 and len(per_seed) == 5
    _verdict(6, "bitwidth sweep trend", ok, time.monotonic() - t0, 300,
             f"non-decreasing FD in {good}/5 seeds")


def test_criterion_7_strategy_comparison_trend(pipeline_cfg, trained, prompt_set,
                                               variance_profile):
    t0 = time.monotonic()
    model, sched = trained
    acc = {s: [] for s in cal.STRATEGIES}
    for seed in range(10):
        res = exp.compare_one_seed(pipeline_cfg, model, sched, prompt_set, seed,
                                   profile=variance_profile)
        for s in acc:
            acc[s].append(res[s]["fd"])
    means = {s: float(np.mean(v)) for s, v in acc.items()}
    ok = (
        means["variance_aware"] <= means["random_uniform"]
        and means["variance_aware"] <= means["normal_timestep"]
    )
    _verdict(7, "strategy comparison trend", ok, time.monotonic() - t0, 600,
             "mean FD " + ", ".join(f"{s}={m:.4f}" for s, m in sorted(means.items())))


def test_criterion_8_size_accounting():
    t0 = time.monotonic()
    rng = nc.RngStream(308)
    layers = [
        dif.AffineLayer("layer0", rng.child(0).standard_normal(144).reshape(12, 12),
                        np.zeros(12)),
        dif.AffineLayer("layer1", rng.child(1).standard_normal(144).reshape(12, 12),
                        np.zeros(12), activation="none"),
    ]
    model = dif.DenoiserModel(layers, 0, 0, 12)
    red8 = qz.model_size_bytes(model, qz.PrecisionPolicy.uniform(model.layer_names, "8W8A"),
                               include_overhead=False)[2]
    red16 = qz.model_size_bytes(model, qz.PrecisionPolicy.uniform(model.layer_names,
                                                                  "fullWfullA"),
                                include_overhead=False)[2]
    mixed = qz.PrecisionPolicy({"layer0": ("full", "full"), "layer1": (4, "full")})
    red_mixed = qz.model_size_bytes(model, mixed, include_overhead=False)[2]
    ok = red8 == 75.0 and red16 == 50.0 and red_mixed == 68.75
    _verdict(8, "size accounting", ok, time.monotonic() - t0, 1,
             f"8-bit {red8}%, FP16 {red16}%, mixed {red_mixed}%")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "audit"
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({
        "out_dir": str(out),
        "epochs": 120,
        "learning_rate": 0.06,
        "hidden": [16, 16],
        "k": 128,
        "n_eval": 16,
        "n_train_per_prompt": 16,
        "batch_size": 32,
        "sweep_seeds": 2,
        "compare_seeds": 2,
        "scale_counts": [2, 3],
        "scale_seeds": 1,
    }))
    commands = [
        ["train"], ["prompts"], ["profile"], ["calibset"], ["quantize"],
        ["sweep"], ["compare"], ["scale"],
    ]

    def run_all():
        for cmd in commands:
            code = cli.main(cmd + ["--config", str(cfgfile)])
            assert code == cli.EXIT_OK, f"{cmd[0]} exited {code}"
        assert cli.main(["report", str(out)]) == cli.EXIT_OK

    run_all()
    first = exp.artifact_hashes(str(out))
    run_all()  # rerun every command in place with the identical config and seed
    second = exp.artifact_hashes(str(out))
    changed = sorted(name for name in first if first[name] != second.get(name))
    ok = first == second
    _verdict(9, "CLI determinism audit", ok, time.monotonic() - t0, 1200,
             f"{len(first)} artifacts, changed={changed}")
