"""Exact computation with fusion rings and (pre)modular data."""

from .core import (AxiomViolation, CharacterTable, FusionRing, FusionRingError,
                   MalformedInput, NonIntegralMultiplicity, character_table_to_fusion_ring,
                   group_ring, product_ring, ring_from_json, ring_to_json,
                   table_from_json, table_to_json, validate_tensor)
from .exact import RootOfUnity, parse_scalar, parse_zeta_expr, quantum_integer
from .spectral import (Character, SpectralReport, characters, formal_codegrees, fpdim,
                       fpdims, induction_unit_profile, ring_fpdim, spectral_report)
from .nearintegral import (GagolaReport, NearIntegralReport, construct, detect,
                           dim_a_chi_minus, extraspecial_kappa, gagola_analyze,
                           near_integral_codegrees, roots_dpm, subring_on)
from .structure import (GradingReport, SubringHandle, adjoint_subring, closure,
                        enumerate_subrings, integral_subring, pointed_subring,
                        universal_grading)
from .premodular import (ModularDatum, QuadraticForm, balancing_check,
                         braided_cases, centralizer_profile, form_classes,
                         form_nondegenerate, gauss_sums, modular_datum_from_json,
                         modular_datum_to_json, quadratic_forms, verlinde_fusion)
from .catalog import (CatalogEntry, ClassificationRow, UnknownEntry, entry_ring,
                      eval_dimension_expr, list_catalog, load_entry, verify_catalog)

__version__ = "0.1.0"
