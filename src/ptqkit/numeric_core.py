"""Tensor coercion, the seeded random stream used everywhere else, and moments.

Tensors are plain 2-D float64 numpy arrays in row-major order.  All
stochastic operations take an explicit :class:`RngStream`; there is no
global random state anywhere in the package.
"""

import numpy as np

from .errors import ShapeError


def tensor2d(data) -> np.ndarray:
    """Coerce ``data`` to a finite 2-D float64 array."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite entries")
    return arr


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by PCG64 seeded with ``SeedSequence([seed, stream_id, *path])``,
    so identical keys reproduce identical draws across runs and platforms.
    Gaussians come from the Box-Muller transform over the stream's
    uniforms (frozen here; we never rely on numpy's ziggurat sampler, so
    sequences stay stable across numpy releases).
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple = ()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(p) for p in _path)
        key = [self.seed, self.stream_id, *self._path]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

    def child(self, *path) -> "RngStream":
        """Derive an independent stream; same key -> same child stream."""
        return RngStream(self.seed, self.stream_id, self._path + tuple(path))

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        return self._gen.random(int(n))

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller."""
        return self.standard_normal_blocks(1, n)[0]

    def standard_normal_blocks(self, n: int, k: int) -> np.ndarray:
        """(n, k) array whose row i equals the i-th of n sequential standard_normal(k) calls.

        One call draws the uniforms of all n blocks; block i uses its own
        ceil(k/2) pairs, exactly as the i-th sequential call would.
        """
        n, k = int(n), int(k)
        m = (k + 1) // 2
        u = self._gen.random(n * 2 * m).reshape(n, 2, m)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))  # 1 - u in (0, 1] keeps log finite
        ang = 2.0 * np.pi * u[:, 1]
        return np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)[:, :k]

    def integers(self, low: int, high: int, size: int = 1) -> np.ndarray:
        """Uniform integers in [low, high)."""
        u = self._gen.random(int(size))
        return (low + np.floor(u * (high - low))).astype(np.int64)

    def categorical(self, p: np.ndarray, size: int) -> np.ndarray:
        """size draws from the categorical distribution p (must sum to 1)."""
        p = np.asarray(p, dtype=np.float64)
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        u = self._gen.random(int(size))
        return np.searchsorted(cdf, u, side="right")

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))


def gaussian_sample(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) tensor of i.i.d. standard normals."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    return rng.standard_normal(rows * cols).reshape(rows, cols)


def mean_and_variance(xs) -> tuple:
    """Mean and *population* variance (divide by N, not N-1) of a flat array."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("mean_and_variance requires a non-empty input")
    mean = float(np.mean(xs))
    var = float(np.mean((xs - mean) ** 2))
    return mean, max(var, 0.0)
