"""Desk-scale laboratory for single-photon splitter statistics.

Closed-form and brute-force coincidence ratios for number, coherent, and
chaotic light on a lossless splitter; the semiclassical intensity bound;
a gated-cascade Monte Carlo with its analytic interpolation curve; causal
field-mode dynamics with local beables, quantum potential, and energy
bookkeeping; and the first-order photodetection amplitude with its
field-sector selection rule.

Each quantity has one home: import the submodule that defines it, as in
``from gralab import fock``.
"""

__version__ = "0.1.0"
