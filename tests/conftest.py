"""Shared fixtures: one fully trained pipeline directory per test session.

Training the toy model at the default config takes several seconds, so
every test that needs a realistic checkpoint shares this session-scoped
directory.
Tests never mutate it; anything that writes copies it first.
"""

import pytest

from ptqkit import experiments as exp
from ptqkit.config import ExperimentConfig


@pytest.fixture(scope="session")
def pipeline_cfg(tmp_path_factory) -> ExperimentConfig:
    out = tmp_path_factory.mktemp("pipeline")
    cfg = ExperimentConfig(out_dir=str(out))
    exp.cmd_prompts(cfg)
    exp.cmd_train(cfg)
    exp.cmd_profile(cfg)
    exp.cmd_calibset(cfg)
    return cfg


@pytest.fixture(scope="session")
def trained(pipeline_cfg):
    """(model, schedule) loaded from the shared checkpoint."""
    return exp._require_checkpoint(pipeline_cfg)


@pytest.fixture(scope="session")
def prompt_set(pipeline_cfg):
    aspects = exp.load_aspects(pipeline_cfg)
    return exp.load_or_build_prompts(pipeline_cfg, aspects)


@pytest.fixture(scope="session")
def variance_profile(pipeline_cfg, trained, prompt_set):
    """The variance profile of the shared checkpoint, built in memory."""
    model, sched = trained
    return exp._profile_for(model, sched, prompt_set, pipeline_cfg, pipeline_cfg.seed)


@pytest.fixture(scope="session")
def calibset(pipeline_cfg):
    import os

    from ptqkit import calibration as cal

    return cal.load_calibration_set(os.path.join(pipeline_cfg.out_dir, "calibset.json"))
