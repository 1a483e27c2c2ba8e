"""Bloch dispersion, cell functions, and homogenized wavefields for periodic media."""

__version__ = "0.2.0"

from .medium import (MediumSpec, Inclusion, CoefficientTable, fourier_table,
                     evaluate_coefficient, spec_from_dict, spec_to_dict,
                     load_spec, two_phase_1d, disk_2d)
from .bloch import (PlaneWaveBasis, BlochPencil, bloch_pencil, solve_bands,
                    assemble_operator, brillouin_path, dispersion_diagram,
                    DispersionDiagram, BandGap, find_band_gaps, fix_phase,
                    export_diagram_csv, eigenpair_at_gamma, GammaPair,
                    ParityBlocks, parity_blocks)
from .cell import (symmetrize_full, pencil_blocks, ConstrainedSolver,
                   CellFunctions, solve_cell_functions, EffectiveCoefficients,
                   effective_coefficients, extrapolated_coefficients,
                   CompatibilityViolation, SingularSystem)
from .source import (GaussianEnvelope, SourceSpec, FrequencySpec,
                     drive_frequency, make_frequency, sample_source, NotInGap)
from .fields import (WavenumberQuadrature, wavenumber_quadrature,
                     FieldOnGrid, synthesize_periodic,
                     exact_bloch_solution, branch_solution, effective_envelope,
                     homogenized_field, homogenized_fields,
                     export_field_csv, export_field_npz,
                     GapViolation, EnvelopeSingularity)
from .convergence import (ReferenceConfig, reference_solution, relative_error,
                          slope_fit, ErrorReport, convergence_study,
                          DecayCheckFailed)
