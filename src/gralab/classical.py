"""Semiclassical gate statistics for a divided light field.

A classical intensity i is split between two detectors that each respond
linearly within a counting gate.  Whatever the intensity distribution over
gates, the normalized coincidence ratio equals <i^2> / <i>^2, which the
Cauchy-Schwarz inequality pins at or above one.  Sub-unity ratios measured
on a real source therefore rule out this entire model family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class ZeroMeanIntensity(ValueError):
    """The gate ensemble carries no light, so no ratio is defined."""


@dataclass
class GateIntensityEnsemble:
    """Per-gate classical intensities with detector response coefficients.

    alpha_t and alpha_r are the products of gain, collection, and quantum
    efficiency for the transmitted and reflected detectors.  Probabilities
    are first-order in intensity, so large intensities can drive them past
    one; that is reported through the admissible flag alone, not
    an error, since the ratio itself stays meaningful.
    """

    intensities: np.ndarray
    gate_duration: float
    alpha_t: float
    alpha_r: float
    admissible: bool = field(init=False, default=True)

    def __post_init__(self) -> None:
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.intensities.ndim != 1 or self.intensities.size == 0:
            raise ValueError("intensities must be a nonempty 1-d sequence")
        # Written so that NaN fails every comparison and is rejected.
        if not np.all((0.0 <= self.intensities) & (self.intensities < np.inf)):
            raise ValueError("intensities must be nonnegative and finite")
        # Every square, and their sum, is at most n peak^2: rejecting an
        # overflow here keeps numpy's from the second moment below.
        peak, n = float(self.intensities.max()), self.intensities.size
        if not math.isfinite(peak * peak * n):
            raise ValueError(
                f"intensity scale overflows the second moment <i^2>: peak {peak:g} over {n} gates"
            )
        if not np.any(self.intensities > 0.0):
            raise ZeroMeanIntensity("every gate in the ensemble is dark")
        if not float(np.mean(self.intensities)) ** 2 >= sys.float_info.min:
            raise ValueError(f"intensity scale underflows the squared mean <i>^2 over {n} gates")
        if not 0.0 < self.gate_duration < math.inf:
            raise ValueError("gate duration must be positive and finite")
        if not (0.0 <= self.alpha_t < math.inf and 0.0 <= self.alpha_r < math.inf):
            raise ValueError("detector coefficients must be nonnegative and finite")
        probs = (*singles_probabilities(self), coincidence_probability(self))
        if not all(math.isfinite(p) for p in probs):
            raise ValueError(
                f"count probabilities overflow at gate duration {self.gate_duration:g} "
                f"and detector coefficients {self.alpha_t:g}, {self.alpha_r:g}"
            )
        self.admissible = bool(max(probs) <= 1.0)


def singles_probabilities(ensemble: GateIntensityEnsemble) -> tuple[float, float]:
    """Per-gate count probabilities (p_t, p_r) = alpha * w * <i>."""
    mean = float(np.mean(ensemble.intensities))
    w = ensemble.gate_duration
    return ensemble.alpha_t * w * mean, ensemble.alpha_r * w * mean


def coincidence_probability(ensemble: GateIntensityEnsemble) -> float:
    """Per-gate coincidence probability alpha_t * alpha_r * w^2 * <i^2>.

    Both detectors see the same intensity within a gate, so the second
    moment, not the squared mean, sets the coincidence rate.
    """
    second = float(np.mean(ensemble.intensities**2))
    w = ensemble.gate_duration
    # w * w, not w**2: an overflow gives inf, which the ensemble rejects.
    return ensemble.alpha_t * ensemble.alpha_r * (w * w) * second


def classical_alpha(ensemble: GateIntensityEnsemble) -> float:
    """Normalized coincidence ratio <i^2> / <i>^2.

    Computed as 1 + var/mean^2, which is structurally at least one and
    exactly one for a constant intensity.  Detector coefficients and the
    gate duration cancel.
    """
    mean = float(np.mean(ensemble.intensities))
    var = float(np.var(ensemble.intensities))
    return 1.0 + var / mean**2
