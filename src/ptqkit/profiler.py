"""Per-(layer, timestep) activation statistics and variance profiles.

The tap is handed to the batched reverse-chain engine, which offers all
running chains' rows of a (layer, timestep) cell at once; each cell's
count, mean and population variance come from that one offer.  Cells are
keyed by (layer, timestep) so the profile can express both "which layer"
and "which timestep" carries the variance.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import ConfigError, InsufficientDataError


class ActivationTap:
    """Consumer of per-layer inputs during generation: one offer per cell.

    Single-writer by contract; the generation harness serializes calls.
    """

    def __init__(self):
        self.counts, self.means, self.variances = {}, {}, {}

    def offer(self, layer: str, t: int, values) -> None:
        key = (layer, int(t))
        if key in self.counts:
            raise ValueError(f"cell {key} was offered twice")
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size < 2:
            raise InsufficientDataError(f"cell {key} has count {v.size} < 2")
        mean = float(np.mean(v))
        self.counts[key], self.means[key] = v.size, mean
        self.variances[key] = float(np.sum((v - mean) ** 2)) / v.size


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
    """The tap's cell variances as sampling probabilities; tau_var is tau_fraction x the max."""
    if not tap.counts:
        raise InsufficientDataError("tap recorded no cells")
    return profile_from_variances(tap.variances, tau_fraction, counts=tap.counts,
                                  means=tap.means)


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
    No cells, a cell listed twice, a count below 2, or a negative, NaN or infinite variance
    is a ConfigError."""
    # columns by name: older files add a sigma_hat column
    _, rows = read_tsv(path, {"layer": str, "timestep": int, "count": int, "mean": float,
                              "variance": float})
    cells = {}
    for r in rows:
        layer, t = key = r["layer"], r["timestep"]
        if key in cells:
            raise ConfigError(f"{path}: cell ({layer}, {t}) is listed twice")
        cells[key] = r
        if r["count"] < 2 or not 0.0 <= r["variance"] < math.inf:
            raise ConfigError(f"{path}: cell ({layer}, {t}) has count {r['count']} and variance "
                              f"{r['variance']!r}; a cell needs count >= 2 and a finite "
                              "variance >= 0")
    if not cells:
        raise ConfigError(f"{path} holds no profile cells")
    return profile_from_variances({c: r["variance"] for c, r in cells.items()}, tau_fraction,
                                  counts={c: r["count"] for c, r in cells.items()},
                                  means={c: r["mean"] for c, r in cells.items()})
