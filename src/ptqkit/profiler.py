"""Streaming per-(layer, timestep) activation statistics and variance profiles.

The tap is handed to the batched reverse-chain engine; every monitored
layer input at every timestep (all running chains' rows in one offer)
updates an exact Welford-style accumulator of count, mean and variance.
Cells are keyed by (layer, timestep) so the profile can express both
"which layer" and "which timestep" carries the variance.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import ConfigError, InsufficientDataError


class _CellStats:
    """One (layer, timestep) cell: running count, mean and M2."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values: np.ndarray) -> None:
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
        self.count = total

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0


class ActivationTap:
    """Consumer of per-layer inputs during generation.

    Offers for layers outside ``monitored_layers`` are silently ignored.
    Single-writer by contract; the generation harness serializes calls.
    """

    def __init__(self, monitored_layers):
        self.monitored_layers = frozenset(monitored_layers)
        self._cells = {}

    def offer(self, layer: str, t: int, values) -> None:
        if layer not in self.monitored_layers:
            return
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        key = (layer, int(t))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellStats()
        cell.update(values)

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

    def probability_vector(self) -> np.ndarray:
        return np.array([self.probabilities[c] for c in self.cells])

    def content_hash(self) -> str:
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
    counts, means, variances = {}, {}, {}
    for key in cells:
        cs = tap.cell_stats(*key)
        if cs.count < 2:
            raise InsufficientDataError(f"cell {key} has count {cs.count} < 2")
        counts[key] = cs.count
        means[key] = cs.mean
        variances[key] = cs.variance
    return profile_from_variances(variances, tau_fraction, counts=counts, means=means)


def profile_from_variances(variances: dict, tau_fraction: float = 0.10, counts=None,
                           means=None) -> LayerVarianceProfile:
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
    )


PROFILE_COLUMNS = ("layer", "timestep", "count", "mean", "variance", "p")


def export_profile(profile: LayerVarianceProfile, path) -> None:
    """Tab-separated profile export, one row per cell, header first."""
    rows = [(*c, profile.counts[c], profile.means[c], profile.variances[c],
             profile.probabilities[c]) for c in profile.cells]
    write_tsv(path, PROFILE_COLUMNS, rows,
              comment={"tau_fraction": profile.tau_fraction, "tau_var": profile.tau_var})


def load_profile(path, tau_fraction: float) -> LayerVarianceProfile:
    """A profile.tsv file's profile, floored at ``tau_fraction`` (not the file's ``#`` line).
    No cells, a count below 2, or a negative, NaN or infinite variance is a ConfigError."""
    # columns by name: older files add a sigma_hat column
    _, rows = read_tsv(path, {"layer": str, "timestep": int, "count": int, "mean": float,
                              "variance": float})
    cells = {(r["layer"], r["timestep"]): r for r in rows}
    for (layer, t), r in cells.items():
        if r["count"] < 2 or not 0.0 <= r["variance"] < math.inf:
            raise ConfigError(f"{path}: cell ({layer}, {t}) has count {r['count']} and variance "
                              f"{r['variance']!r}; a cell needs count >= 2 and a finite "
                              "variance >= 0")
    if not cells:
        raise ConfigError(f"{path} holds no profile cells")
    return profile_from_variances({c: r["variance"] for c, r in cells.items()}, tau_fraction,
                                  counts={c: r["count"] for c, r in cells.items()},
                                  means={c: r["mean"] for c, r in cells.items()})
