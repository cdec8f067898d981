#!/usr/bin/env python3
"""The ptqkit benchmark.

    python3 bench/run.py --workload {train,calibrate,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload is one closed-loop caller
that runs ptqkit commands in sequence through ``ptqkit.cli.main``, in this
process, with ``jobs=1`` and BLAS pinned to one thread.  One *pass* is the
workload's whole command sequence in a fresh output directory; passes
repeat until ``--seconds`` is used up (at least two, so every run checks
that a rerun with the same seed writes identical artifacts).  The seed is
the ``--seed`` of every command.

Workloads (traffic from the README quick start and the acceptance suite):

* ``train``: ``prompts`` then ``train`` at the default data and model
  shape, with fewer epochs.  Training only: no reverse chain, calibration
  or quantizer.
* ``calibrate``: the paper's path on the pinned checkpoint in
  ``bench/fixture``: ``profile``, ``calibset`` (variance_aware, K=256),
  ``quantize --policy 8W8A``, ``compare`` (3 strategies, one seed) and
  ``report``.  Reverse chains in both uses (capture replays, evaluation
  chains with activation fake-quant), the profiler tap and the writers.
* ``sweep``: ``quantize --policy 8WfullA`` then ``sweep`` (32/16/8/4-bit
  weights) on the same checkpoint.  1-row evaluation chains with no tap,
  weights quantized once, no calibration set.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
set-up time (a cold import of the package plus loading the pinned
inputs), the median pass wall time, the median time of the workload's main
command (``train``, ``compare``, ``sweep``) and peak RSS.

Times are given at a reference speed.  The cores of the 2-core VM this
benchmark was defined on change speed by up to 2x from one second, or one
minute, to the next, because other tenants share them; a raw pass time
spread by 15-80% between runs.  A ``SpeedProbe`` times a fixed numpy loop
every few milliseconds from a timer signal in the measuring thread, so its
samples see the core speed the measured code saw.  Each command's time,
net of the probe's own time, is scaled by ``REF_NOMINAL_S`` over the mean
probe sample taken while it ran.  Raw seconds are printed above the
result line and kept in the result file.

With ``--trace 1`` one untraced pass is followed by traced passes
(``bench/tracer.py`` wraps every ptqkit function from outside); the last
line then holds the per-layer metrics: call and row counts, which are
checked against counts derived from the config, and each layer's time as a
share of the traced pass, since a layer that a workload never calls reads 0.
Outputs go to ``.bench_out/``.
"""

import os

PINNED_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                        "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from make_fixture import FIXTURE_DIR, read_sums, sha256_file  # bench/ is on sys.path

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
OUT_ROOT = ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_INTERVAL_S = 0.05
SETUP_PROBE_INTERVAL_S = 0.01  # set-up steps last tens of milliseconds
PROBE_LOOPS = 30
# the probe loop's time on a fast core of the VM above; it only sets the scale
REF_NOMINAL_S = 0.0014
EXIT_USAGE = 2

FIXTURE_CONFIG = {
    "checkpoint": os.path.join(FIXTURE_DIR, "model.json"),
    "prompts_file": os.path.join(FIXTURE_DIR, "prompts.tsv"),
}

WORKLOADS = {
    "train": {
        "config": {"epochs": 100},
        "commands": [["prompts"], ["train"]],
        "main": "train",
    },
    "calibrate": {
        "config": {**FIXTURE_CONFIG, "compare_seeds": 1},
        "commands": [["profile"], ["calibset", "--strategy", "variance_aware"],
                     ["quantize", "--policy", "8W8A"], ["compare"], ["report"]],
        "main": "compare",
    },
    "sweep": {
        "config": {**FIXTURE_CONFIG, "sweep_seeds": 1},
        "commands": [["quantize", "--policy", "8WfullA"], ["sweep"]],
        "main": "sweep",
    },
}

COMMANDS = ("prompts", "train", "profile", "calibset", "quantize", "compare", "sweep", "report")
STRATEGIES = ("variance_aware", "random_uniform", "normal_timestep")
MODULES = ("cli", "config", "experiments", "coverage", "diffusion", "profiler", "calibration",
           "quantizer", "metrics", "numeric_core")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "main_cmd_s": "s", "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs, set-up and environment
# ---------------------------------------------------------------------------

def check_fixture() -> None:
    """Raise ValueError unless every pinned input matches its recorded sha256."""
    for name, digest in read_sums().items():
        if sha256_file(os.path.join(FIXTURE_DIR, name)) != digest:
            raise ValueError(f"{FIXTURE_DIR}/{name} does not match its recorded sha256; "
                             "regenerate it with bench/make_fixture.py")


def import_ptqkit():
    """Import ptqkit from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ptqkit
    import ptqkit.calibration
    import ptqkit.cli
    import ptqkit.config
    import ptqkit.coverage
    import ptqkit.diffusion
    import ptqkit.experiments
    import ptqkit.metrics
    import ptqkit.numeric_core
    import ptqkit.profiler
    import ptqkit.quantizer

    if not os.path.abspath(ptqkit.__file__).startswith(src + os.sep):
        raise ImportError(f"ptqkit imported from {ptqkit.__file__}, not from {src}")
    return ptqkit


COLD_IMPORT = """
import json, sys
import numpy
sys.path.insert(0, "bench")
from run import timed_at_reference
print(json.dumps(timed_at_reference(lambda: __import__("ptqkit.cli"))))
"""


def cold_import() -> tuple:
    """(seconds, mean reference sample) of importing ptqkit.cli in a fresh
    interpreter, both timed inside it.  numpy and the modules this script
    imports are loaded first, so the time is the package's own."""
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env, check=True,
                          capture_output=True, text=True)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def timed_at_reference(fn) -> tuple:
    """(seconds net of the probe, mean reference sample) of one call of fn."""
    probe = SpeedProbe(SETUP_PROBE_INTERVAL_S)
    with probe:
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0 - probe.spent
    return seconds, statistics.fmean(probe.samples) if probe.samples else probe.reference()


def set_up(ptqkit, wl: dict, out: str, config_path: str) -> None:
    """The in-process part of set-up: the verified and loaded pinned inputs,
    the config file and an empty output directory."""
    if "checkpoint" in wl["config"]:
        check_fixture()
        ptqkit.diffusion.load_checkpoint(wl["config"]["checkpoint"])
        ptqkit.coverage.load_prompt_set(wl["config"]["prompts_file"])
    os.makedirs(os.path.dirname(config_path), exist_ok=True)
    with open(config_path, "w") as fh:
        json.dump({**wl["config"], "jobs": 1}, fh, sort_keys=True)
    ptqkit.config.load_config(config_path)
    reset_dir(out)


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources and this script (which fixes the workloads)."""
    h = hashlib.sha256()
    paths = [os.path.join("bench", "run.py")]
    for base, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths.extend(os.path.join(base, f) for f in sorted(files) if not f.endswith(".pyc"))
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(np, args) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dicts mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "jobs": 1,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def run_pass(ptqkit, wl: dict, out: str, config_path: str, seed: int, tracer=None) -> dict:
    """Run the workload's commands once; returns per-command exit codes and times.

    Untraced passes run under a SpeedProbe; its samples and its own time are
    returned so that times can be taken net of it and read against it.
    """
    reset_dir(out)
    codes, times, samples = {}, {}, {}
    probe = SpeedProbe() if tracer is None else None
    with probe or contextlib.nullcontext():
        for cmd in wl["commands"]:
            name = cmd[0]
            if name == "report":
                argv = ["report", out]
            else:
                argv = [*cmd, "--config", config_path, "--out", out, "--seed", str(seed)]
            captured = io.StringIO()
            span = tracer.span(f"cmd.{name}") if tracer else contextlib.nullcontext()
            spent, first = (probe.spent, len(probe.samples)) if probe else (0.0, 0)
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = ptqkit.cli.main(argv)
            times[name] = time.perf_counter() - t0 - ((probe.spent - spent) if probe else 0.0)
            samples[name] = probe.samples[first:] if probe else []
            codes[name] = rc
            if rc != 0:
                log(f"ptqkit {' '.join(cmd)} exited with {rc}: {captured.getvalue().strip()}")
    p = {"codes": codes, "times": times, "wall": sum(times.values())}
    if probe:
        # each command is read against the probe samples taken while it ran;
        # one shorter than the probe interval against those of the whole pass
        p["ref"] = statistics.fmean(probe.samples) if probe.samples else probe.reference()
        p["norm"] = {cmd: t * REF_NOMINAL_S / (statistics.fmean(samples[cmd]) if samples[cmd]
                                               else p["ref"])
                     for cmd, t in times.items()}
    return p


class SpeedProbe:
    """Times a fixed reference loop every ``interval`` seconds, from a timer signal.

    The probe runs in the measuring thread, so each sample sees the core
    speed that the code it interrupted saw.  A command's time, net of the
    probe's own time (``spent``), divided by the mean sample taken while the
    command ran, cancels most of the machine's speed drift.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        import numpy as np

        self.interval = interval
        rng = np.random.default_rng(0)
        self._ws = [rng.standard_normal((18, 64)) / 4, rng.standard_normal((64, 64)) / 8,
                    rng.standard_normal((64, 2)) / 8]
        self._c = rng.standard_normal(8)
        self._freqs = np.exp(-np.arange(4) / 3.0)
        self._np = np
        self.samples = []
        self.spent = 0.0

    def reference(self) -> float:
        """The loop: the numpy calls of one toy denoiser step, on a fixed input."""
        np = self._np
        t0 = time.perf_counter()
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 1])))
        x = np.zeros((1, 2))
        for t in range(PROBE_LOOPS):
            ang = (t / PROBE_LOOPS) * self._freqs * 2.0 * np.pi
            te = np.concatenate([np.sin(ang), np.cos(ang)])
            h = np.vstack([np.concatenate([row, te, self._c]) for row in x])
            for w in self._ws:
                z = h @ w
                h = z / (1.0 + np.exp(-z))
            u1, u2 = 1.0 - gen.random(1), gen.random(1)
            noise = np.sqrt(-2.0 * np.log(u1)) * np.concatenate([np.cos(u2), np.sin(u2)])
            x = np.asarray(0.9 * x + 0.1 * h + 0.01 * noise, dtype=np.float64)
            if not np.all(np.isfinite(x)):
                raise FloatingPointError("reference loop diverged")
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def ledger(out: str) -> dict:
    """Results records of one pass, keyed by command."""
    path = os.path.join(out, "results.jsonl")
    records = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                records[rec["command"]] = rec
    return records


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_outputs(ptqkit, cfg, out: str, codes: dict) -> list:
    """Problems with the outputs of the commands that exited 0."""
    problems = []
    rec = ledger(out)
    ok = {cmd for cmd, rc in codes.items() if rc == 0}

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    def calibset_k(fname):
        path = os.path.join(out, fname)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return len(json.load(fh)["samples"])

    if "prompts" in ok:
        need(os.path.getsize(os.path.join(out, "prompts.tsv")) > 0, "prompts.tsv is empty")
    if "train" in ok:
        try:
            ptqkit.diffusion.load_checkpoint(os.path.join(out, "model.json"))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"trained checkpoint does not reload: {exc}")
        loss = rec.get("train", {}).get("metrics", {}).get("final_loss")
        need(finite(loss), f"train final_loss is not finite: {loss!r}")
    if "profile" in ok:
        with open(os.path.join(out, "profile.tsv")) as fh:
            rows = [ln for ln in fh if ln.strip() and not ln.startswith(("#", "layer\t"))]
        need(len(rows) == cfg.timesteps * (len(cfg.hidden) + 1),
             f"profile.tsv has {len(rows)} cells")
    if "calibset" in ok:
        k = calibset_k("calibset.json")
        need(k == cfg.k, f"calibset.json holds {k} samples, not K={cfg.k}")
    if "quantize" in ok:
        m = rec.get("quantize", {}).get("metrics", {})
        need(finite(m.get("fd"), m.get("kl"), m.get("mse")), f"quantize FD/KL not finite: {m}")
    if "compare" in ok:
        for strategy in STRATEGIES:
            k = calibset_k(f"calibset_{strategy}.json")
            need(k == cfg.k, f"calibset_{strategy}.json holds {k} samples, not K={cfg.k}")
        rows = rec.get("compare", {}).get("metrics", {}).get("rows", [])
        need(len(rows) == len(STRATEGIES) * cfg.compare_seeds, f"compare has {len(rows)} rows")
        need(all(finite(*r[2:]) for r in rows), "compare FD/KL/MSE not finite")
    if "sweep" in ok:
        m = rec.get("sweep", {}).get("metrics", {})
        need(len(m.get("rows", [])) == 1 + len(cfg.sweep_bits), "sweep has the wrong row count")
        need(all(finite(*r[1:]) for r in m.get("rows", []) + m.get("per_seed", [])),
             "sweep FD/MSE not finite")
    if "report" in ok:
        path = os.path.join(out, "summary.tsv")
        need(os.path.exists(path), "report did not write summary.tsv")
        if os.path.exists(path) and ok & {"quantize", "compare"}:
            with open(path) as fh:
                need(len(fh.readlines()) >= 2, "summary.tsv has no policy rows")
    return problems


def diagnostics(out: str) -> dict:
    """Quality numbers of one pass (0 where the workload does not run the command)."""
    rec = ledger(out)
    mean_fd = rec.get("compare", {}).get("metrics", {}).get("mean_fd", {})
    sweep_rows = {r[0]: r[1] for r in rec.get("sweep", {}).get("metrics", {}).get("rows", [])}
    quant = rec.get("quantize", {})
    return {
        "experiments.final_loss": rec.get("train", {}).get("metrics", {}).get("final_loss") or 0.0,
        "experiments.fd_8w8a": quant["metrics"]["fd"] if quant.get("policy") == "8W8A" else 0.0,
        **{f"experiments.fd.{s}": mean_fd.get(s, 0.0) for s in STRATEGIES},
        "experiments.fd.4WfullA": sweep_rows.get("4WfullA", 0.0),
    }


def artifact_bytes(path: str) -> int:
    """Bytes of the artifacts in ``path``, leaving out the results ledger,
    whose wall-time field changes length from run to run."""
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
               if f != "results.jsonl" and os.path.isfile(os.path.join(path, f)))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def add_probes(tracer) -> None:
    def denoise_rows(tr, args, kwargs, result):
        tr.count("denoise_rows_all", _rows(result.value))

    def capture_rows(tr, args, kwargs, result):
        sched, cell = args[1], args[3]
        tr.count("capture_rows", _rows(result[0]) * (sched.T - cell[1] + 1))

    def offer(tr, args, kwargs, result):
        tr.count("offer_rows", _rows(args[3]))

    def fake_quant(tr, args, kwargs, result):
        tr.count("fake_quant_rows", _rows(args[0]))

    def sampled(tr, args, kwargs, result):
        tr.count("samples", len(result.samples))
        tr.count("tau_halvings", int(result.extra.get("tau_halvings", 0)))
        per_layer = [sum(1 for s in result.samples if s.layer == name)
                     for name in args[0].layer_names]
        tr.counters["min_layer_samples"] = min(per_layer + [tr.counters.get("min_layer_samples",
                                                                            math.inf)])

    def saved_calibset(tr, args, kwargs, result):
        tr.count("calibset_bytes", os.path.getsize(args[1]))

    def built_profile(tr, args, kwargs, result):
        tr.counters["cells"] = len(result.cells)

    tracer.probe("diffusion.denoise_step", denoise_rows)
    tracer.probe("calibration._capture", capture_rows)
    tracer.probe("profiler.ActivationTap.offer", offer)
    tracer.probe("quantizer.fake_quant", fake_quant)
    for sampler in ("sample_calibration_set", "sample_random_uniform", "sample_normal_timestep"):
        tracer.probe(f"calibration.{sampler}", sampled)
    tracer.probe("calibration.save_calibration_set", saved_calibset)
    tracer.probe("profiler.build_profile", built_profile)


def layer_metrics(tracer, table, wall: float) -> tuple:
    """Per-layer metrics of one traced pass, plus the self-time table in seconds."""
    c = tracer.counters
    names = table.names
    pct = lambda seconds: 100.0 * seconds / wall  # noqa: E731
    incl = lambda *ns: sum(table.inclusive(n) for n in ns)  # noqa: E731
    under_capture = table.under("calibration._capture")
    chain = ~under_capture
    chain_steps = table.calls("diffusion.denoise_step", chain)
    chain_rows = c.get("denoise_rows_all", 0) - c.get("capture_rows", 0)
    in_step = table.under("diffusion.denoise_step")
    rng_names = [n for n in names if n.startswith("numeric_core.RngStream.")]
    calib_names = [n for n in names if n.startswith("calibration.")]
    calib_io = ["calibration.save_calibration_set", "calibration.load_calibration_set"]
    coverage_failures = tracer.errors.get("quantizer.quantize_model:CalibrationCoverageError", 0)
    m = {
        "numeric_core.rng_streams": table.calls("numeric_core.RngStream.__init__"),
        "numeric_core.rng_pct": pct(table.self_of(rng_names + ["numeric_core.gaussian_sample"])),
        "numeric_core.tensor2d_calls": table.calls("numeric_core.tensor2d"),
        "coverage.augment_pct": pct(incl("coverage.augment")),
        "coverage.generator_calls": sum(table.calls(n) for n in names
                                        if n.startswith("coverage.") and n.endswith(".generate")),
        "coverage.coverage_vector_calls": table.calls("coverage.compute_coverage_vector"),
        "diffusion.train_self_pct": pct(table.self_of(["diffusion.train"])),
        "diffusion.training_batch_pct": pct(incl("diffusion.training_batch")),
        "diffusion.training_batches": table.calls("diffusion.training_batch"),
        "diffusion.time_embedding_calls": table.calls("diffusion.time_embedding"),
        "diffusion.checkpoint_io_pct": pct(incl("diffusion.save_checkpoint",
                                                "diffusion.load_checkpoint")),
        "diffusion.generate_pct": pct(incl("diffusion.generate")),
        "diffusion.generate_calls": table.calls("diffusion.generate"),
        "diffusion.denoise_step_pct": pct(table.inclusive("diffusion.denoise_step", chain)),
        "diffusion.denoise_step_calls": chain_steps,
        "diffusion.denoise_rows": chain_rows,
        "diffusion.rows_per_step": chain_rows / chain_steps if chain_steps else 0.0,
        "profiler.offer_pct": pct(incl("profiler.ActivationTap.offer")),
        "profiler.offers": table.calls("profiler.ActivationTap.offer"),
        "profiler.offer_rows": c.get("offer_rows", 0),
        "profiler.build_profile_pct": pct(incl("profiler.build_profile")),
        "profiler.io_pct": pct(incl("profiler.export_profile", "profiler.load_profile")),
        "profiler.cells": c.get("cells", 0),
        "calibration.sample_self_pct": pct(table.self_of([n for n in calib_names
                                                          if n not in calib_io])),
        "calibration.capture_pct": pct(incl("calibration._capture")),
        "calibration.capture_steps": table.calls("diffusion.denoise_step", under_capture),
        "calibration.samples": c.get("samples", 0),
        "calibration.save_pct": pct(incl("calibration.save_calibration_set")),
        "calibration.load_pct": pct(incl("calibration.load_calibration_set")),
        "calibration.bytes": c.get("calibset_bytes", 0),
        "calibration.min_layer_samples": c.get("min_layer_samples", 0),
        "calibration.tau_halvings": c.get("tau_halvings", 0),
        "calibration.coverage_failures": coverage_failures,
        "quantizer.quantize_model_pct": pct(incl("quantizer.quantize_model")),
        "quantizer.fit_params_calls": table.calls("quantizer.fit_params"),
        "quantizer.fit_params_pct": pct(incl("quantizer.fit_params")),
        "quantizer.fake_quant_calls": table.calls("quantizer.fake_quant"),
        "quantizer.fake_quant_in_step_calls": table.calls("quantizer.fake_quant", in_step),
        "quantizer.fake_quant_rows": c.get("fake_quant_rows", 0),
        "quantizer.fake_quant_pct": pct(incl("quantizer.fake_quant")),
        "quantizer.save_pct": pct(incl("quantizer.save_quantized_checkpoint")),
        "metrics.gaussian_pct": pct(incl("metrics.fit_gaussian", "metrics.frechet_distance",
                                         "metrics.kl_gaussian")),
        "metrics.jacobi_calls": table.calls("metrics.jacobi_eigh"),
        "experiments.evaluate_pair_pct": pct(incl("experiments.evaluate_pair")),
        "experiments.evaluate_pair_calls": table.calls("experiments.evaluate_pair"),
        "experiments.ledger_pct": pct(incl("experiments.append_result",
                                           "experiments.read_results")),
        **{f"experiments.{cmd}_cmd_pct": pct(incl(f"cmd.{cmd}")) for cmd in COMMANDS},
    }
    # self time per module; the benchmark's own code between calls is the remainder
    by_module = table.by_module()
    self_s = {mod: by_module.get(mod, 0.0) for mod in (*MODULES, "cmd")}
    self_s["unattributed"] = wall - sum(self_s.values())
    for mod, seconds in self_s.items():
        m[f"trace.{mod}_self_pct"] = pct(seconds)
    m["trace.spans"] = len(table.dur)
    m["trace.wall_s"] = wall
    return m, self_s


def expected_counts(name: str, cfg, n_prompts: int, capture_steps: int) -> dict:
    """Traced counts that follow from the config (capture steps from the calibration sets).

    Keys are per-layer metric names, or (command, span name) for the calls
    of one function under one command.
    """
    T, L = cfg.timesteps, len(cfg.hidden) + 1
    per = max(cfg.n_eval // n_prompts, 1)
    eval_steps = n_prompts * 2 * per * T  # one evaluate_pair: full and quantized chains
    profile_steps = n_prompts * cfg.n_profile_chains * T
    step, offer, capture = ("diffusion.denoise_step", "profiler.ActivationTap.offer",
                            "calibration._capture")
    if name == "train":
        batches = cfg.epochs * (n_prompts * cfg.n_train_per_prompt // cfg.batch_size)
        return {"diffusion.training_batches": batches,
                "diffusion.time_embedding_calls": batches * cfg.batch_size,
                "diffusion.denoise_step_calls": 0, "calibration.samples": 0,
                "profiler.offers": 0, "quantizer.fake_quant_calls": 0}
    if name == "sweep":
        policies = 1 + len(cfg.sweep_bits)
        return {("quantize", step): eval_steps,
                ("sweep", step): policies * cfg.sweep_seeds * eval_steps,
                "diffusion.rows_per_step": 1.0,
                "experiments.evaluate_pair_calls": 1 + policies * cfg.sweep_seeds,
                "calibration.samples": 0, "calibration.capture_steps": 0, "profiler.offers": 0,
                "quantizer.fake_quant_in_step_calls": 0, "diffusion.training_batches": 0}
    strategies = len(STRATEGIES) * cfg.compare_seeds
    return {("profile", offer): profile_steps * L,
            ("compare", offer): profile_steps * L,  # compare profiles the model once
            ("quantize", step): eval_steps,
            ("calibset", capture): cfg.k,
            ("compare", capture): strategies * cfg.k,
            "profiler.cells": T * L,
            "diffusion.denoise_step_calls": 2 * profile_steps + (1 + strategies) * eval_steps,
            "experiments.evaluate_pair_calls": 1 + strategies,
            "calibration.samples": (1 + strategies) * cfg.k,
            "calibration.capture_steps": capture_steps,
            # per-step activation fake-quant on the quantized chains (half of each pair)
            "quantizer.fake_quant_in_step_calls": (1 + strategies) * eval_steps // 2 * L,
            "calibration.coverage_failures": 0, "diffusion.training_batches": 0}


def capture_steps_from_sets(out: str, T: int) -> int:
    total = 0
    for fname in ("calibset.json", *(f"calibset_{s}.json" for s in STRATEGIES)):
        path = os.path.join(out, fname)
        if os.path.exists(path):
            with open(path) as fh:
                total += sum(T - s["timestep"] + 1 for s in json.load(fh)["samples"])
    return total


# ---------------------------------------------------------------------------
# determinism across runs
# ---------------------------------------------------------------------------

def check_cross_run(name: str, seed: int, digest: str, hashes: dict) -> list:
    """Same seed as an earlier run of the same sources: same artifacts.
    Different seed: different artifacts."""
    rec_dir = os.path.join(OUT_ROOT, "hashes")
    os.makedirs(rec_dir, exist_ok=True)
    prefix = f"{name}-{digest[:16]}-seed"
    problems = []
    mine = os.path.join(rec_dir, f"{prefix}{seed}.json")
    for fname in sorted(os.listdir(rec_dir)):
        if not fname.startswith(prefix):
            continue
        path = os.path.join(rec_dir, fname)
        with open(path) as fh:
            other = json.load(fh)
        if path == mine and other != hashes:
            problems.append(f"artifacts differ from an earlier run with seed {seed}")
        elif path != mine and other == hashes:
            problems.append(f"artifacts equal those of another seed ({fname})")
    if not os.path.exists(mine):
        tmp = mine + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(hashes, fh, sort_keys=True)
        os.replace(tmp, mine)
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ptqkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(ptqkit, wl: dict, out: str, config_path: str) -> list:
    """(raw seconds, seconds at the reference speed) of each set-up repeat.

    Set-up is a cold import of the package plus the in-process part; each
    is read against probe samples taken while it ran, in its own process.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        import_s, import_ref = cold_import()
        local_s, local_ref = timed_at_reference(lambda: set_up(ptqkit, wl, out, config_path))
        runs.append((import_s + local_s,
                     (import_s / import_ref + local_s / local_ref) * REF_NOMINAL_S))
    return runs


def traced_checks(ptqkit, name: str, cfg, out: str, tracer, p: dict, first_span: int) -> None:
    """Per-layer metrics of a traced pass, and their exact-count checks.

    A count that differs from the one the config implies is logged and
    counted in ``trace.count_mismatches``; it does not make the run
    incorrect, because a change that batches chains or steps changes call
    counts by design.
    """
    from tracer import SpanTable

    table = SpanTable(tracer, first_span, len(tracer.start))
    p["layers"], p["self_s"] = layer_metrics(tracer, table, p["wall"])
    n_prompts = len(ptqkit.coverage.load_prompt_set(cfg.resolved_prompts_file()).prompts)
    want = expected_counts(name, cfg, n_prompts, capture_steps_from_sets(out, cfg.timesteps))
    mismatches = 0
    for key, value in want.items():
        if isinstance(key, tuple):
            got = table.calls(key[1], table.under(f"cmd.{key[0]}"))
        else:
            got = p["layers"][key]
        if got != value:
            mismatches += 1
            log(f"count check: traced {key} = {got}, the config implies {value}")
    p["layers"]["trace.count_mismatches"] = mismatches


def per_layer_result(passes: list, tracer, path: str) -> dict:
    """Medians of the traced passes' shares; counts from the first traced pass."""
    traced = [q for q in passes if q["traced"]]
    untraced = [q for q in passes if not q["traced"]]
    metrics = {}
    for key, unit in layer_units(traced[0]["layers"]).items():
        values = [q["layers"][key] for q in traced]
        metrics[key] = {"value": statistics.median(values) if unit in ("%", "s") else values[0],
                        "unit": unit}
    overhead = statistics.median(q["wall"] for q in traced) - \
        statistics.median(q["wall"] for q in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["experiments.bytes_written"] = {"value": passes[-1]["bytes_written"], "unit": "B"}
    for key, value in passes[-1]["diagnostics"].items():
        metrics[key] = {"value": value, "unit": "loss" if "loss" in key else "fd"}
    print_layer_table(traced[-1])
    tracer.save(path)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        ptqkit = import_ptqkit()
    except ImportError as exc:
        log(f"cannot import ptqkit from this checkout: {exc}")
        return EXIT_USAGE
    import numpy as np

    name = args.workload
    wl = WORKLOADS[name]
    work = os.path.join(OUT_ROOT, name)
    out = os.path.join(work, "out")
    config_path = os.path.join(work, "config.json")
    try:
        setups = measure_setup(ptqkit, wl, out, config_path)
    except (ValueError, OSError, subprocess.CalledProcessError) as exc:
        log(f"set-up failed: {exc}")
        return EXIT_USAGE
    cfg = ptqkit.config.load_config(config_path, {"out_dir": out, "seed": args.seed})
    env = environment(np, args)
    print(json.dumps({"environment": env}, sort_keys=True))

    tracer = None
    if args.trace:
        from tracer import Tracer  # bench/ is this script's directory

        tracer = Tracer(run_id=f"{name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}")
        add_probes(tracer)
        ptq_modules = [m for mod_name, m in sorted(sys.modules.items())
                       if mod_name == "ptqkit" or mod_name.startswith("ptqkit.")]

    passes, problems = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) >= 1  # the first pass is always untraced
        first_span = 0
        if traced:
            tracer.counters.clear()
            tracer.errors.clear()
            first_span = len(tracer.start)
            tracer.install(ptq_modules)
        try:
            p = run_pass(ptqkit, wl, out, config_path, args.seed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        p["problems"] = check_outputs(ptqkit, cfg, out, p["codes"])
        p["hashes"] = ptqkit.experiments.artifact_hashes(out)
        p["diagnostics"] = diagnostics(out)
        p["bytes_written"] = artifact_bytes(out)
        if traced:
            traced_checks(ptqkit, name, cfg, out, tracer, p, first_span)
        problems.extend(f"pass {len(passes)}: {msg}" for msg in p["problems"])
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall"] for q in passes if q["traced"] == traced)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    if any(q["hashes"] != passes[0]["hashes"] for q in passes):
        problems.append("passes with the same seed wrote different artifacts")
    problems.extend(check_cross_run(name, args.seed, env["source_digest"], passes[0]["hashes"]))
    traced_passes = [q for q in passes if q["traced"]]
    for q in traced_passes[1:]:
        for key, value in traced_passes[0]["layers"].items():
            if not key.endswith(("_pct", "_s")) and q["layers"][key] != value:
                problems.append(f"traced count {key} differs between passes")
    for msg in problems:
        log(f"check failed: {msg}")

    untraced = [q for q in passes if not q["traced"]]
    for cmd in untraced[0]["times"]:
        raw = statistics.median(q["times"][cmd] for q in untraced)
        norm = statistics.median(q["norm"][cmd] for q in untraced)
        print(f"command {cmd:9s} median {raw:8.3f} s raw, {norm:8.3f} s at reference speed, "
              f"{len(untraced)} untraced passes")
    if args.trace:
        metrics = per_layer_result(passes, tracer, os.path.join(work, f"trace-seed{args.seed}.npz"))
    else:
        metrics = {
            "setup_s": statistics.median(norm for _, norm in setups),
            "wall_s": statistics.median(sum(q["norm"].values()) for q in passes),
            "main_cmd_s": statistics.median(q["norm"][wl["main"]] for q in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    declared = declared_metrics(args.trace)
    if declared != {k: m["unit"] for k, m in metrics.items()}:
        problems.append("metrics or units differ from those BENCHMARK.json declares")
        log(f"check failed: {problems[-1]}")
    result = {"correct": not problems,
              "attempted": sum(len(q["codes"]) for q in passes),
              "failed": sum(1 for q in passes for rc in q["codes"].values() if rc != 0),
              "metrics": metrics}
    detail = {"environment": env, "result": result, "setups": setups, "problems": problems,
              "passes": [{k: q.get(k) for k in ("codes", "times", "wall", "ref", "norm", "traced",
                                                 "hashes", "problems")} for q in passes]}
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, sort_keys=True, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


def declared_metrics(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this trace mode."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_units(layers: dict) -> dict:
    units = {}
    for key in layers:
        if key.endswith("_pct"):
            units[key] = "%"
        elif key.endswith("_s"):
            units[key] = "s"
        elif key.endswith("rows_per_step"):
            units[key] = "rows/step"
        elif key.endswith("bytes"):
            units[key] = "B"
        else:
            units[key] = "count"
    return units


def print_layer_table(p: dict) -> None:
    """Self time per module; with the remainder it sums to the traced pass wall time."""
    wall = p["wall"]
    print(f"{'layer':14s} {'self_s':>9s} {'share':>7s}")
    for mod, seconds in sorted(p["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"{mod:14s} {seconds:9.4f} {100.0 * seconds / wall:6.2f}%")
    print(f"{'traced wall':14s} {wall:9.4f} {100.0:6.2f}%")


if __name__ == "__main__":
    sys.exit(main())
