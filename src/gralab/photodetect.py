"""First-order photodetection amplitude for a one-electron detector atom.

A bound electron exposed to the recombined single-photon state acquires a
continuum amplitude whose magnitude carries the resonance factor
(1 - e^(i E t)) / E in the energy mismatch E and a hydrogenic form factor
in the ejected wavenumber.  The photon part of the amplitude is a single
annihilation overlap, so exactly one field sector (the vacuum) survives;
that selection rule is checked by brute force on the splitter output state,
held as rung vectors in the layout of `gralab.fock`.

Natural units: hbar = c = 1 throughout, so neither appears in a signature
or a formula.  The atom is ground-state hydrogen (reduced mass one, squared
charge 4 pi, so Bohr radius one and binding energy -1/2) in a unit volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hydrogen's coupling e / mu sqrt(1 / 2V), with e^2 = 4 pi and mu = V = 1.
_COUPLING = math.sqrt(4.0 * math.pi) * math.sqrt(0.5)


@dataclass(frozen=True)
class DetectorAtomConfig:
    """Hydrogen detector atom facing one output beam.

    k0 and phi identify the monitored beam mode and the interferometer
    phase imprinted on the incoming state.
    """

    k0: float = 1.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every comparison and is rejected.
        if not 0.0 < self.k0 < math.inf:
            raise ValueError("k0 must be positive and finite")
        if not 4.0 * self.k0 * self.k0 < math.inf:  # (1 + k^2)^2 at the resonant k^2 = 2 k0 - 1
            raise ValueError(f"k0 {self.k0:g} overflows the resonant form factor's (1 + k^2)^2")
        if not math.isfinite(self.phi):
            raise ValueError("interferometer phase must be finite")


def energy_mismatch(cfg: DetectorAtomConfig, k_en):
    """Final-minus-initial energy k_en^2 / 2 - k0 + 1/2 (bound at -1/2)."""
    k = np.asarray(k_en, dtype=float)
    return k**2 / 2.0 - cfg.k0 + 0.5


def resonance_factor(e_mismatch, t: float):
    """Time-energy factor (1 - e^(i E t)) / E, finite at E = 0.

    Evaluated as -i t e^(i E t / 2) sinc(E t / 2), which is smooth through
    the resonance, where it grows linearly in t.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("exposure time must be nonnegative and finite")
    e = np.asarray(e_mismatch, dtype=float)
    if not float(np.abs(e).max(initial=0.0)) * t < math.inf:  # NaN fails here
        raise ValueError(f"exposure time {t:g} overflows the resonance phase E t / 2")
    half = e * t / 2.0
    return -1j * t * np.exp(1j * half) * np.sinc(half / np.pi)


def mode_overlap_factor(cfg: DetectorAtomConfig) -> complex:
    """Photon-sector factor (1 + e^(i phi)) / sqrt(2 k0) of the amplitude.

    Its squared modulus times k0 is 1 + cos phi, beam c's weight in
    gralab.beables, so it vanishes at phi = pi, where the two paths cancel
    at this detector.
    """
    return (1.0 + np.exp(1j * cfg.phi)) / math.sqrt(2.0 * cfg.k0)


def form_factor(k_en):
    """Bound-to-continuum overlap, a hydrogenic Lorentzian-squared in k_en."""
    k = np.asarray(k_en, dtype=float)
    return 8.0 * math.sqrt(math.pi) / (1.0 + k**2) ** 2


def eta(cfg: DetectorAtomConfig, k_en, t: float):
    """First-order amplitude for ejecting an electron at wavenumber k_en.

    Product of the coupling prefactor, the photon-sector overlap, the
    atomic form factor, and the resonance factor after exposure t.
    Broadcasts over k_en.  Raises ValueError for an exposure t at which
    |eta|^2 could overflow.
    """
    resonance = resonance_factor(energy_mismatch(cfg, k_en), t)
    prefactor = _COUPLING * mode_overlap_factor(cfg)
    # |eta| <= |prefactor| 8 sqrt(pi) t: the form factor peaks at 8 sqrt(pi)
    # and the resonance factor's modulus is at most t.
    peak = abs(complex(prefactor)) * 8.0 * math.sqrt(math.pi) * t
    if not peak * peak < math.inf:
        raise ValueError(f"exposure time {t:g} overflows |eta|^2")
    return prefactor * form_factor(k_en) * resonance


def resonant_wavenumber(cfg: DetectorAtomConfig) -> float:
    """Ejected wavenumber with zero energy mismatch.

    Exists only when the photon supplies more than the binding energy 1/2.
    """
    surplus = cfg.k0 - 0.5
    if surplus <= 0.0:
        raise ValueError("photon energy does not clear the binding energy")
    return math.sqrt(2.0 * surplus)


def split_photon_state(phi: float) -> list[np.ndarray]:
    """Single photon split over two paths with the interferometer phase.

    Path amplitudes e^(i phi) and 1, each weighted 1/sqrt(2), fill rung 1
    of the rungs 0 and 1 (amplitude j of rung k on |k-j>_t |j>_r).
    """
    return [np.zeros(1, dtype=complex), np.array([np.exp(1j * phi), 1.0]) / math.sqrt(2.0)]


@dataclass(frozen=True)
class AbsorptionReport:
    """Field-sector overlaps of the annihilated splitter output state."""

    vacuum_amplitude: complex
    largest_other: float
    nonzero_count: int
    amplitude_vanishes: bool
    n_max: int


def absorption_matrix_element_check(state: list[np.ndarray], k0: float = 1.0) -> AbsorptionReport:
    """Scan all field sectors of the absorbed state for surviving overlaps.

    Applies (a_t + a_r) / sqrt(k0) to the state's rungs 0 .. n_max and
    reports the overlap with every number sector.  For a one-photon input
    only the vacuum sector survives; at the dark-fringe phase even that
    amplitude vanishes, which is flagged rather than treated as an error.
    Overlaps of 1e-12 or less count as zero.
    """
    n_max = len(state) - 1
    if n_max < 1 or any(len(rung) != k + 1 for k, rung in enumerate(state)):
        raise ValueError("state must be the rungs 0 .. n_max >= 1, rung k of k + 1 amplitudes")
    if not 0.0 < k0 < math.inf:
        raise ValueError("mode wavenumber must be positive and finite")
    root = np.sqrt(np.arange(n_max + 1.0))
    # Lowering maps rung k onto rung k-1: amplitude j gains sqrt(k-j) psi_k[j]
    # through a_t and sqrt(j+1) psi_k[j+1] through a_r.
    lowered = np.concatenate(
        [
            (root[k:0:-1] * state[k][:-1] + root[1 : k + 1] * state[k][1:]) / math.sqrt(k0)
            for k in range(1, n_max + 1)
        ]
    )
    magnitudes = np.abs(lowered)
    vacuum = complex(lowered[0])
    return AbsorptionReport(
        vacuum_amplitude=vacuum,
        largest_other=float(magnitudes[1:].max(initial=0.0)),
        nonzero_count=int((magnitudes > 1e-12).sum()),
        amplitude_vanishes=abs(vacuum) <= 1e-12,
        n_max=n_max,
    )
