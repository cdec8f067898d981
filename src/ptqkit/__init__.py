"""Calibration-aware post-training quantization toolkit for a toy
conditional diffusion model.

Subpackages:
    numeric_core  -- tensor coercion, seeded RNG
    diffusion     -- the toy DDPM (schedules, training, generation)
    quantizer     -- affine quantization, precision policies, size accounting
    profiler      -- per-cell activation moments and variance profiles
    calibration   -- variance-aware / random / normal calibration samplers
    coverage      -- aspect coverage vectors and prompt augmentation
    metrics       -- Frechet distance and Gaussian KL
    experiments   -- pipeline commands behind the CLI
    artifacts     -- the atomic file writer and the JSON/TSV readers
"""

__version__ = "0.1.0"
