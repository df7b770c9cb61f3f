"""Numerical laboratory for gapped frustration-free chains on finite windows.

The package builds finite-volume chain Hamiltonians (paired-orbital and
spin-1 projector models, or user-supplied interactions), certifies their
frustration-free structure, measures indistinguishability of kernel states,
transports spectral projectors along a quasi-adiabatic flow, and assembles
the certified constants that control the perturbed spectral gap.
"""

from .lattice import Interval, ball, boundary_distances, interior
from .ffunction import (FFunctionSpec, WeightSpec, ShiftedEnvelope,
                        DressedDecay, RegroupedDecay, f_norm, norm_sum,
                        convolution_constant, regroup_decay)
from .operator_algebra import (LocalOperator, ParityError, embed,
                               eigenvalues, operator_norm, spin_matrices,
                               conditional_expectation, delta_layer)
from .interaction import (Term, Interaction, local_hamiltonian,
                          hamiltonian_eigenvalues,
                          validate_unperturbed, split_edge_bulk,
                          regroup_intervals, fermion_to_spin,
                          random_interaction)
from .spectra import (FrustrationError, RefinementError, diagonalize,
                      ground_projector, gap_curve,
                      cluster_projector, resolution_family, sigma_projection,
                      higher_gap_track, sp0_diameter_scan)
from .ltqo import (ltqo_witness, witness_tensor, exact_zero_certificate,
                   ascent_lower_bound)
from .spectral_flow import (Window, flow_unitaries,
                            eigenbasis_generator,
                            time_quadrature_generator, decompose_phi1,
                            split_phi1, theta_assembly,
                            filter_identity_residual)
from .stability_bounds import (OmegaProfile, JConstants, j_constants,
                               BoundConstants, bound_constants,
                               stability_threshold, verify_form_bound,
                               higher_gap_bound, higher_gap_threshold,
                               edge_bulk_strengths, uniform_strengths,
                               calibrate_c, kappa_bound)
from .models import (paired_orbital_model, orbital_interaction, kernel_data,
                     auxiliary_basis, validate_model, aklt_interaction,
                     random_even_perturbation)

__version__ = "0.1.0"
