"""First-order photodetection amplitude for a one-electron detector atom.

A bound electron exposed to the recombined single-photon state acquires a
continuum amplitude whose magnitude carries the resonance factor
(1 - e^(i E t)) / E in the energy mismatch E and a hydrogenic form factor
in the ejected wavenumber.  The photon part of the amplitude is a single
annihilation overlap, so exactly one field sector (the vacuum) survives;
that selection rule is checked by brute force on the splitter output state.

Natural units: hbar = c = 1 throughout, so neither appears in a signature
or a formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import TwoModeFockSpace, creation_matrix


@dataclass(frozen=True)
class DetectorAtomConfig:
    """One-electron detector atom facing one output beam.

    binding_energy is the (negative) energy of the initial bound state;
    k0 and phi identify the monitored beam mode and the interferometer
    phase imprinted on the incoming state.
    """

    bohr_radius: float
    reduced_mass: float
    charge: float
    binding_energy: float
    k0: float = 1.0
    phi: float = 0.0
    volume: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every comparison and is rejected.
        for name in ("bohr_radius", "reduced_mass", "charge", "k0", "volume"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not -math.inf < self.binding_energy < 0.0:
            raise ValueError("the initial state must be bound (negative, finite energy)")
        if not math.isfinite(self.phi):
            raise ValueError("interferometer phase must be finite")

    @classmethod
    def hydrogen(cls, k0: float = 1.0, phi: float = 0.0, volume: float = 1.0) -> "DetectorAtomConfig":
        """Ground-state hydrogen with unit reduced mass mu.

        The squared charge is 4 pi, which makes the orbital radius
        4 pi / (mu e^2) exactly one and the binding energy -1/2.
        """
        return cls(
            bohr_radius=1.0,
            reduced_mass=1.0,
            charge=math.sqrt(4.0 * math.pi),
            binding_energy=-0.5,
            k0=k0,
            phi=phi,
            volume=volume,
        )


def energy_mismatch(cfg: DetectorAtomConfig, k_en):
    """Final-minus-initial energy k_en^2 / 2 mu - k0 - E_bound."""
    k = np.asarray(k_en, dtype=float)
    kinetic = k**2 / (2.0 * cfg.reduced_mass)
    return kinetic - cfg.k0 - cfg.binding_energy


def resonance_factor(e_mismatch, t: float):
    """Time-energy factor (1 - e^(i E t)) / E, finite at E = 0.

    Evaluated as -i t e^(i E t / 2) sinc(E t / 2), which is smooth through
    the resonance, where it grows linearly in t.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("exposure time must be nonnegative and finite")
    e = np.asarray(e_mismatch, dtype=float)
    half = e * t / 2.0
    return -1j * t * np.exp(1j * half) * np.sinc(half / np.pi)


def mode_overlap_factor(cfg: DetectorAtomConfig) -> complex:
    """Photon-sector factor (i - e^(i phi)) / sqrt(2 k0) of the amplitude.

    Vanishes at phi = pi/2, where the two paths cancel at this detector.
    """
    return (1j - np.exp(1j * cfg.phi)) / math.sqrt(2.0 * cfg.k0)


def form_factor(cfg: DetectorAtomConfig, k_en):
    """Bound-to-continuum overlap, a hydrogenic Lorentzian-squared in k_en."""
    k = np.asarray(k_en, dtype=float)
    a = cfg.bohr_radius
    shell = 1.0 / math.sqrt(cfg.volume * math.pi * a**3)
    return shell * 8.0 * math.pi * a**3 / (1.0 + a**2 * k**2) ** 2


def eta(cfg: DetectorAtomConfig, k_en, t: float):
    """First-order amplitude for ejecting an electron at wavenumber k_en.

    Product of the coupling prefactor, the photon-sector overlap, the
    atomic form factor, and the resonance factor after exposure t.
    Broadcasts over k_en.
    """
    coupling = (cfg.charge / cfg.reduced_mass) * math.sqrt(1.0 / (2.0 * cfg.volume))
    return (
        coupling
        * mode_overlap_factor(cfg)
        * form_factor(cfg, k_en)
        * resonance_factor(energy_mismatch(cfg, k_en), t)
    )


def resonant_wavenumber(cfg: DetectorAtomConfig) -> float:
    """Ejected wavenumber with zero energy mismatch.

    Exists only when the photon supplies more than the binding energy.
    """
    surplus = cfg.k0 + cfg.binding_energy
    if surplus <= 0.0:
        raise ValueError("photon energy does not clear the binding energy")
    return math.sqrt(2.0 * cfg.reduced_mass * surplus)


def split_photon_state(phi: float, n_max: int = 1) -> TwoModeFockSpace:
    """Single photon split over two paths with the interferometer phase.

    Path amplitudes -e^(i phi) and i, each weighted 1/sqrt(2).
    """
    if n_max < 1:
        raise ValueError("need at least the one-photon sector")
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[1, 0] = -np.exp(1j * phi) / math.sqrt(2.0)
    amps[0, 1] = 1j / math.sqrt(2.0)
    return TwoModeFockSpace(n_max=n_max, amplitudes=amps)


@dataclass(frozen=True)
class AbsorptionReport:
    """Field-sector overlaps of the annihilated splitter output state."""

    vacuum_amplitude: complex
    largest_other: float
    nonzero_count: int
    amplitude_vanishes: bool
    n_max: int


def absorption_matrix_element_check(state: TwoModeFockSpace, k0: float = 1.0) -> AbsorptionReport:
    """Scan all field sectors of the absorbed state for surviving overlaps.

    Applies (a_t + a_r) / sqrt(k0) to the state by matrix products and
    reports the overlap with every number sector.  For a one-photon input
    only the vacuum sector survives; at the dark-fringe phase even that
    amplitude vanishes, which is flagged rather than treated as an error.
    Overlaps of 1e-12 or less count as zero.
    """
    if state.n_max < 1:
        raise ValueError("state must retain at least the one-photon sector")
    if not 0.0 < k0 < math.inf:
        raise ValueError("mode wavenumber must be positive and finite")
    create = creation_matrix(state.n_max)
    psi = state.amplitudes
    lowered = (create.T @ psi + psi @ create) / math.sqrt(k0)
    magnitudes = np.abs(lowered)
    vacuum = complex(lowered[0, 0])
    others = magnitudes.copy()
    others[0, 0] = 0.0
    return AbsorptionReport(
        vacuum_amplitude=vacuum,
        largest_other=float(others.max()),
        nonzero_count=int((magnitudes > 1e-12).sum()),
        amplitude_vanishes=abs(vacuum) <= 1e-12,
        n_max=state.n_max,
    )
