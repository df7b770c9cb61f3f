"""Numerical laboratory for gapped frustration-free chains on finite windows.

The package builds finite-volume chain Hamiltonians (paired-orbital and
spin-1 projector models, or user-supplied interactions), certifies their
frustration-free structure, measures indistinguishability of kernel states,
transports spectral projectors along a quasi-adiabatic flow, and assembles
the certified constants that control the perturbed spectral gap.
"""
