"""Calibration-aware post-training quantization toolkit for a toy
conditional diffusion model.

Subpackages:
    numeric_core  -- tensors, seeded RNG, basic reductions
    diffusion     -- the toy DDPM (schedules, training, generation)
    quantizer     -- affine quantization, precision policies, size accounting
    profiler      -- streaming activation statistics and variance profiles
    calibration   -- variance-aware / random / normal calibration samplers
    coverage      -- aspect coverage vectors and prompt augmentation
    metrics       -- Frechet distance and Gaussian KL
    experiments   -- pipeline commands behind the CLI
    artifacts     -- the atomic file writer and the JSON/TSV readers
"""

__version__ = "0.1.0"

from .numeric_core import RngStream, gaussian_sample, mean_and_variance, tensor2d  # noqa: F401
