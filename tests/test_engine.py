"""The batched reverse-chain engine against a one-chain-at-a-time reference.

The reference below steps each chain alone with its own ancestral-step
arithmetic (posterior mean plus sqrt(beta_tilde_t) noise), drawing every
step's noise from the chain's own stream in sequence, runs one model at a time, and
captures calibration samples by replaying each sample's chains separately.  It
shares only the model's forward pass with the engine.  The engine must
reproduce it to within 1e-12; only BLAS summation order may differ.
"""

import math
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from test_diffusion import generate

from ptqkit import calibration as cal
from ptqkit import diffusion as dif
from ptqkit import experiments as exp
from ptqkit import metrics as met
from ptqkit import numeric_core as nc
from ptqkit import quantizer as qz

TOL = 1e-12


def reference_step(model, x, t, cond, sched, rng, tap=None):
    """x_{t-1} from x_t: the DDPM posterior mean, plus sqrt(beta_tilde_t) z drawn from rng at t > 1."""
    ab_t = sched.alpha_bar[t - 1]
    ab_prev = sched.alpha_bar[t - 2] if t > 1 else 1.0
    alpha_t = ab_t / ab_prev
    u = np.hstack([x, np.tile(dif.time_embedding(t, model.time_embed_dim, sched.T), (len(x), 1)),
                   np.tile(cond, (len(x), 1))])
    eps_hat = model.forward(u, tap=tap, t=t)
    mean = (x - (1.0 - alpha_t) / math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(alpha_t)
    if t == 1:
        return mean
    var = (1.0 - alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    return mean + math.sqrt(var) * rng.standard_normal(x.size).reshape(x.shape)


def reference_generate(model, cond, sched, n, rng, tap=None):
    out = np.empty((n, model.data_dim))
    for i in range(n):
        crng = rng.child(i)
        x = crng.standard_normal(model.data_dim).reshape(1, -1)
        for t in range(sched.T, 0, -1):
            x = reference_step(model, x, t, cond, sched, crng, tap=tap)
        out[i] = x[0]
    return out


def reference_evaluate_pair(model, qmodel, sched, prompts, cond_dim, n_eval, seed):
    per = max(n_eval // len(prompts.prompts), 1)
    rng = nc.RngStream(seed, 60)
    full, quant = [], []
    for i, p in enumerate(prompts.prompts):
        c = dif.condition_embedding(p.text, p.bits, cond_dim)
        full.append(reference_generate(model, c, sched, per, rng.child(i)))
        quant.append(reference_generate(qmodel, c, sched, per, rng.child(i)))
    full, quant = np.vstack(full), np.vstack(quant)
    fa, fb = met.fit_gaussian(full), met.fit_gaussian(quant)
    return {"fd": met.frechet_distance(fa, fb), "kl": met.kl_gaussian(fb, fa),
            "mse": float(np.mean((full - quant) ** 2))}


class _CellCapture:
    def __init__(self, layer, t):
        self.layer, self.t, self.value = layer, t, None

    def offer(self, layer, t, values):
        if layer == self.layer and t == self.t:
            self.value = np.array(values)


def reference_capture(model, sched, cond, cell, chain_rng, batch=cal.CAPTURE_BATCH):
    """Replay one sample's chains from t=T and grab its cell on the way down."""
    layer, t_target = cell
    tap = _CellCapture(layer, t_target)
    x = chain_rng.standard_normal(batch * model.data_dim).reshape(batch, -1)
    for t in range(sched.T, t_target, -1):
        x = reference_step(model, x, t, cond, sched, chain_rng)
    reference_step(model, x, t_target, cond, sched, chain_rng, tap=tap)
    return tap.value


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a))


def test_generate_matches_reference(trained, prompt_set):
    model, sched = trained
    for i, p in enumerate(prompt_set.prompts[:3]):
        c = dif.condition_embedding(p.text, p.bits, model.cond_embed_dim)
        got = generate(model, c, sched, 5, nc.RngStream(8).child(i))
        want = reference_generate(model, c, sched, 5, nc.RngStream(8).child(i))
        assert np.max(np.abs(got - want)) <= TOL


def test_evaluate_pair_matches_reference_with_fake_quant(pipeline_cfg, trained, prompt_set,
                                                         calibset):
    model, sched = trained
    qmodel = qz.quantize_model(model, qz.PrecisionPolicy.uniform(model.layer_names, "8W8A"),
                               calibset, method="percentile", percentile=99.9).model
    got = exp.evaluate_pair(model, qmodel, sched, prompt_set, pipeline_cfg.cond_embed_dim, 32, 4)
    want = reference_evaluate_pair(model, qmodel, sched, prompt_set,
                                   pipeline_cfg.cond_embed_dim, 32, 4)
    assert got["fd"] > 0.0
    for key in ("fd", "kl", "mse"):
        assert _close(got[key], want[key]), (key, got[key], want[key])


def test_stacked_evaluation_matches_reference(pipeline_cfg, trained, prompt_set, calibset):
    model, sched = trained
    qmodels = [qz.quantize_model(model, qz.PrecisionPolicy.uniform(model.layer_names, policy),
                                 calibset, method=method, percentile=99.9).model
               for policy, method in (("8W8A", "percentile"), ("8W8A", "minmax"),
                                      ("4W16A", "percentile"))]
    got = exp.evaluate_models(model, qmodels, sched, prompt_set, pipeline_cfg.cond_embed_dim,
                              32, 4)
    for qmodel, res in zip(qmodels, got):
        want = reference_evaluate_pair(model, qmodel, sched, prompt_set,
                                       pipeline_cfg.cond_embed_dim, 32, 4)
        for key in ("fd", "kl", "mse"):
            assert _close(res[key], want[key]), (key, res[key], want[key])


def test_profile_matches_reference(pipeline_cfg, trained, prompt_set):
    model, sched = trained
    cfg = pipeline_cfg
    got = exp._profile_for(model, sched, prompt_set, cfg, 3)
    rows = defaultdict(list)  # every (layer, t) input the one-chain reference offers
    tap = SimpleNamespace(offer=lambda layer, t, h: rows[(layer, t)].append(np.ravel(h)))
    rng = nc.RngStream(3, 41)
    for i, p in enumerate(prompt_set.prompts):
        c = dif.condition_embedding(p.text, p.bits, cfg.cond_embed_dim)
        reference_generate(model, c, sched, cfg.n_profile_chains, rng.child(i), tap=tap)
    assert got.cells == sorted(rows)
    for c in got.cells:
        v = np.concatenate(rows[c])
        mean = float(np.mean(v))
        var = float(np.mean((v - mean) ** 2))  # two-pass population variance
        assert got.counts[c] == v.size
        assert abs(got.means[c] - mean) <= TOL
        assert abs(got.variances[c] - var) <= TOL * max(1.0, var)


@pytest.mark.parametrize("strategy", cal.STRATEGIES)
def test_capture_matches_reference(pipeline_cfg, trained, prompt_set, variance_profile, strategy):
    model, sched = trained
    rng = nc.RngStream(12, 50)
    cs, = exp._calibsets(pipeline_cfg, model, sched, prompt_set, (strategy,), 12,
                         profile=variance_profile)
    conds = {p.prompt_id: dif.condition_embedding(p.text, p.bits, model.cond_embed_dim)
             for p in prompt_set.prompts}
    assert len(cs.samples) == pipeline_cfg.k
    for i, s in enumerate(cs.samples[:40]):
        act = reference_capture(model, sched, conds[s.prompt_id], (s.layer, s.timestep),
                                rng.child(1000, i))
        assert s.activation.shape == act.shape
        assert np.max(np.abs(s.activation - act)) <= TOL
    # one chain carrying requests at two timesteps and two layers, the first sample's among them
    s0 = cs.samples[0]
    cells = [(s0.layer, s0.timestep)] + [(layer, t) for layer in model.layer_names[::3]
                                         for t in (sched.T, 1)]
    layers, timesteps = zip(*cells)
    acts = cal._capture(model, sched, conds[s0.prompt_id][None, :], timesteps, layers,
                        [rng.child(1000, 0)])
    for cell, act in zip(cells, acts):
        want = reference_capture(model, sched, conds[s0.prompt_id], cell, rng.child(1000, 0))
        assert act.shape == want.shape
        assert np.max(np.abs(act - want)) <= TOL


def test_rows_leave_the_batch_at_their_stop(trained, prompt_set):
    model, sched = trained
    p = prompt_set.prompts[0]
    c = dif.condition_embedding(p.text, p.bits, model.cond_embed_dim)
    stop = np.array([0, 0, 7, 30, sched.T])
    rngs = [nc.RngStream(5).child(i) for i in range(len(stop))]
    noise = dif.chain_noise(rngs, sched.T, model.data_dim)
    seen = {}

    class Tap:
        def offer(self, layer, t, values):
            if layer == model.layer_names[0]:
                seen[t] = values.shape[0]

    out = dif.reverse_chains(model, sched, np.tile(c, (len(stop), 1)), noise, tap=Tap(),
                             stop=stop)
    assert seen == {t: int(np.sum(stop < t)) for t in range(1, sched.T + 1)}
    assert np.array_equal(out[-1], noise[0, -1])  # stop = T: never stepped
    full = dif.reverse_chains(model, sched, np.tile(c, (len(stop), 1)), noise)
    assert np.max(np.abs(out[:2] - full[:2])) <= TOL
