"""Streaming per-(layer, timestep) activation statistics and variance profiles.

The tap is handed to the batched reverse-chain engine; every monitored
layer input at every timestep (all running chains' rows in one offer)
updates a Welford-style accumulator (exact) and a bounded reservoir of
raw values (approximate, for distribution comparisons).
Cells are keyed by (layer, timestep) so the profile can express both
"which layer" and "which timestep" carries the variance.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numeric_core as nc
from .artifacts import read_tsv, write_tsv
from .errors import InsufficientDataError


class _CellStats:
    """One (layer, timestep) cell: running count/mean/M2 plus a reservoir."""

    __slots__ = ("count", "mean", "m2", "reservoir", "_filled")

    def __init__(self, reservoir_size: int):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.reservoir = np.empty(reservoir_size)
        self._filled = 0

    def update(self, values: np.ndarray, rng: nc.RngStream) -> None:
        # Chan's parallel combination of (count, mean, M2) -- exact, so the
        # streaming variance matches a two-pass computation bit-for-bit
        # within float tolerance regardless of chunking.
        m = values.size
        b_mean = float(np.mean(values))
        b_m2 = float(np.sum((values - b_mean) ** 2))
        delta = b_mean - self.mean
        total = self.count + m
        self.mean += delta * m / total
        self.m2 += b_m2 + delta * delta * self.count * m / total
        self._reservoir_update(values, rng)
        self.count = total

    def _reservoir_update(self, values: np.ndarray, rng: nc.RngStream) -> None:
        size = self.reservoir.size
        if size == 0:
            return
        n = values.size
        i = min(size - self._filled, n)  # fill phase
        self.reservoir[self._filled:self._filled + i] = values.ravel()[:i]
        self._filled += i
        if i >= n:
            return
        # algorithm R, vectorized draw of the replacement slots
        positions = self.count + np.arange(i, n)  # 0-based index of each offer
        u = rng.uniform(n - i)
        slots = np.floor(u * (positions + 1)).astype(np.int64)
        hits = np.nonzero(slots < size)[0]
        vals = values.ravel()[i:]
        for k in hits:
            self.reservoir[slots[k]] = vals[k]

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    def reservoir_values(self) -> np.ndarray:
        return self.reservoir[: self._filled].copy()


class ActivationTap:
    """Consumer of per-layer inputs during generation.

    Offers for layers outside ``monitored_layers`` are silently ignored.
    Single-writer by contract; the generation harness serializes calls.
    """

    def __init__(self, monitored_layers, reservoir_size: int = 64, rng: nc.RngStream = None):
        self.monitored_layers = frozenset(monitored_layers)
        self.reservoir_size = int(reservoir_size)
        self._rng = rng or nc.RngStream(0, 7777)
        self._cells = {}
        self.offer_count = 0

    def offer(self, layer: str, t: int, values: np.ndarray) -> None:
        self.offer_count += 1
        self.record(layer, t, values)

    def record(self, layer: str, t: int, values) -> None:
        if layer not in self.monitored_layers:
            return
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        key = (layer, int(t))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellStats(self.reservoir_size)
        cell.update(values, self._rng)

    def cells(self):
        return sorted(self._cells)

    def cell_stats(self, layer: str, t: int) -> _CellStats:
        return self._cells[(layer, int(t))]


@dataclass
class LayerVarianceProfile:
    """Per-cell variances and the sampling probabilities they normalize to."""

    cells: list  # ordered (layer, timestep) keys
    counts: dict
    means: dict
    variances: dict
    probabilities: dict
    tau_var: float
    tau_fraction: float
    reservoirs: dict = field(default_factory=dict, repr=False)

    def probability_vector(self) -> np.ndarray:
        return np.array([self.probabilities[c] for c in self.cells])

    def content_hash(self) -> str:
        import hashlib

        parts = []
        for c in self.cells:
            parts.append(f"{c[0]}|{c[1]}|{self.counts[c]}|{self.variances[c]!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def build_profile(tap: ActivationTap, tau_fraction: float = 0.10) -> LayerVarianceProfile:
    """Normalize cell variances into sampling probabilities.

    tau_var is tau_fraction times the maximum cell variance.  Every cell
    must hold at least two observations.
    """
    cells = tap.cells()
    if not cells:
        raise InsufficientDataError("tap recorded no cells")
    counts, means, variances, reservoirs = {}, {}, {}, {}
    for key in cells:
        cs = tap.cell_stats(*key)
        if cs.count < 2:
            raise InsufficientDataError(f"cell {key} has count {cs.count} < 2")
        counts[key] = cs.count
        means[key] = cs.mean
        variances[key] = cs.variance
        reservoirs[key] = cs.reservoir_values()
    return profile_from_variances(variances, tau_fraction, counts=counts, means=means,
                                  reservoirs=reservoirs)


def profile_from_variances(variances: dict, tau_fraction: float = 0.10, counts=None,
                           means=None, reservoirs=None) -> LayerVarianceProfile:
    """Build a profile directly from a {cell: variance} map."""
    cells = sorted(variances)
    total = sum(variances[c] for c in cells)
    if total <= 0.0:
        # all-zero variance: uniform probabilities, tau_var 0
        probabilities = {c: 1.0 / len(cells) for c in cells}
    else:
        probabilities = {c: variances[c] / total for c in cells}
    tau_var = tau_fraction * max(variances[c] for c in cells)
    return LayerVarianceProfile(
        cells=cells,
        counts=dict(counts) if counts else {c: 2 for c in cells},
        means=dict(means) if means else {c: 0.0 for c in cells},
        variances=dict(variances),
        probabilities=probabilities,
        tau_var=tau_var,
        tau_fraction=tau_fraction,
        reservoirs=dict(reservoirs) if reservoirs else {},
    )


PROFILE_COLUMNS = ("layer", "timestep", "count", "mean", "variance", "p")


def export_profile(profile: LayerVarianceProfile, path) -> None:
    """Tab-separated profile export, one row per cell, header first."""
    rows = [(*c, profile.counts[c], profile.means[c], profile.variances[c],
             profile.probabilities[c]) for c in profile.cells]
    write_tsv(path, PROFILE_COLUMNS, rows,
              comment={"tau_fraction": profile.tau_fraction, "tau_var": profile.tau_var})


def load_profile(path) -> LayerVarianceProfile:
    # columns by name: older files add a sigma_hat column
    comment, rows = read_tsv(path, {"layer": str, "timestep": int, "count": int, "mean": float,
                                    "variance": float})
    cells = {(r["layer"], r["timestep"]): r for r in rows}
    return profile_from_variances({c: r["variance"] for c, r in cells.items()},
                                  float(comment.get("tau_fraction", 0.10)),
                                  counts={c: r["count"] for c, r in cells.items()},
                                  means={c: r["mean"] for c, r in cells.items()})
