"""Physics checks as records: every --check bound and probe point in one place.

Each builder returns a list of Check records that the CLI prints and writes
to its manifest and that the acceptance tests assert on.  The beables and
the photon overlap factor are called through their module attributes, so a
rebinding of gralab.beables or gralab.photodetect functions (tracing, test
doubles) reaches these calls too.  Each builder imports the module it calls,
so a photodetect run loads no beables and a beables run no photodetect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One outcome.  It passes only when its value lies below its bound, so a
    NaN fails; the surviving sector count alone must equal its bound of 1."""

    label: str
    value: float
    bound: float
    passed: bool


def _below(label: str, value: float, bound: float) -> Check:
    return Check(label, float(value), float(bound), bool(value < bound))


# The probe point, in units of 1 / k0 so that its beam phase k0 x stays O(1).
_PROBE_X = np.array([0.3, 0.2, 0.1])


def frames(pair, phi, vacuum) -> list[Check]:
    """E = -(1/c) dA/dt and B = curl A at the probe point, at 0.4 of the
    fastest period of the region's mode frequencies (phi None is the
    divided region), so the rotation phase there is the same at any amplitude.
    Both errors are relative, so the unit volume stands for every volume."""
    from . import beables

    x = _PROBE_X / pair.k0
    t = 0.4 * (2.0 * math.pi / max(beables.mode_frequencies(pair, phi=phi)))
    if phi is None:
        e_err, b_err = beables.frame_consistency_region1(pair, x, t, vacuum=vacuum)
    else:
        e_err, b_err = beables.frame_consistency_region2(pair, phi, x, t, vacuum=vacuum)
    return [_below("E vs -(1/c) dA/dt", e_err, 1e-6), _below("B vs curl A", b_err, 1e-6)]


def region1(pair, vacuum) -> list[Check]:
    """Wave-equation residual, frame consistency and energy drift over a cycle.

    Residual and energy are closed forms, so both bounds sit near rounding.
    Every divided-region state has energy 3 k0, so the drift is the largest
    departure from 3 k0 over the cycle.  The spread of the sampled energies
    would miss a wrong quantum potential: |q_a - i q_b| and |q_a|^2 + |q_b|^2
    are constant on every orbit, so any Q built from them is conserved.
    The departure is the exact sum of the energy terms less 3 k0, relative
    to the kinetic term: it tests kinetic = 1 / (2 |w|^2), which beside
    3 k0 or k0^2 rho^2 would fall below the bound from amp ~ 3e5.
    """
    from . import beables

    period = 2.0 * math.pi / max(beables.mode_frequencies(pair))
    times = (0.0, 0.3 * period, 0.6 * period)
    residual = np.max([beables.wave_equation_residual(pair, t) for t in times])
    energies = [beables._energy_terms(pair, t) for t in np.linspace(0.0, period, 5)]
    conserved = 3.0 * pair.k0
    # fsum refuses inf - inf, so an overflowed term makes a NaN drift, which fails.
    drift = np.max([
        abs(math.fsum([*terms, -conserved])) / terms[0] if np.isfinite(terms).all() else math.nan
        for terms in energies
    ])
    return [
        _below("wave-equation residual", residual, 1e-12),
        *frames(pair, None, vacuum),
        _below("energy drift over a cycle", drift, 1e-12),
    ]


def fringes(i_c, i_d) -> list[Check]:
    """Unit visibility, extinctions and a flat sum over a sweep of phi from 0
    across [0, 2 pi) with an even number of samples, so pi is the middle one."""
    from . import beables

    peak = float(max(i_c.max(), i_d.max()))
    total = i_c + i_d
    return [
        _below("beam c visibility - 1", abs(beables.visibility(i_c) - 1.0), 1e-9),
        _below("beam d visibility - 1", abs(beables.visibility(i_d) - 1.0), 1e-9),
        _below("beam d at phi=0", i_d[0], 1e-12 * peak),
        _below("beam c at phi=pi", i_c[len(i_c) // 2], 1e-12 * peak),
        _below("summed intensity spread", total.max() - total.min(), 1e-10 * peak),
    ]


def absorption(report, cfg) -> list[Check]:
    """No non-vacuum overlap, exactly one surviving field sector unless the
    two path amplitudes cancel and nothing is absorbed, and a scanned vacuum
    amplitude equal to the photon factor of eta for the atom cfg, to 1e-12 of
    that factor's largest modulus sqrt(2 / k0).  For the two-rung split photon
    of split_photon_state the lowered state has one amplitude, so the first
    two records read exactly 0 and 1 by construction; only a multi-photon
    input could fail them."""
    from . import photodetect

    records = [_below("largest non-vacuum overlap", report.largest_other, 1e-12)]
    if not report.amplitude_vanishes:
        count = report.nonzero_count
        records.append(Check("surviving field sectors", float(count), 1.0, count == 1))
    gap = abs(report.vacuum_amplitude - photodetect.mode_overlap_factor(cfg))
    records.append(_below("vacuum amplitude vs overlap factor", gap, 1e-12 * math.sqrt(2.0 / cfg.k0)))
    return records
