"""Exact Riemann-Roch numbers of coadjoint orbits and symplectic
fibrations, by two independent routes: base intersection pairings of the
character class, and iterated-residue localization over fixed points.
All arithmetic is in exact rationals.
"""

from .characters import character_series, orbit_volume, weyl_dim
from .errors import (ConfigurationError, DegenerateOrbitError, ExactDivisionError,
                     GeneratorDeficiencyError, GenericityError, InadmissibleInputError,
                     InternalInconsistencyError, SingularValueError)
from .invariants import express_invariant, invariant_generators
from .localization import (BaseIntersectionOracle, CalibrationRegistry, FixedPointDatum,
                           fibration_rr_base, fibration_rr_residue, product_orbit_fixed_data,
                           raw_fibration_residue, rr_leading_coefficient, rr_orbit_fixedpoint,
                           todd_restriction_identity)
from .multiplicities import (tensor_multiplicity, weight_count_dimension,
                             weight_multiplicities)
from .residues import RatExpTerm, make_term, merge_terms, res_cone, res_plus_1d
from .roots import (RootSystem, WeylElement, build_root_system, enumerate_weyl_group,
                    fundamental_degrees, parse_group_label)
from .series import TruncatedSeries, flag_integral, positive_root_product
from .volumes import partition_fiber_volume

__version__ = "0.1.0"

__all__ = [
    "BaseIntersectionOracle", "CalibrationRegistry",
    "ConfigurationError", "DegenerateOrbitError", "ExactDivisionError",
    "FixedPointDatum", "GeneratorDeficiencyError", "GenericityError",
    "InadmissibleInputError", "InternalInconsistencyError", "RatExpTerm", "RootSystem",
    "SingularValueError", "TruncatedSeries", "WeylElement",
    "build_root_system", "character_series", "enumerate_weyl_group", "express_invariant",
    "fibration_rr_base", "fibration_rr_residue", "flag_integral", "fundamental_degrees",
    "invariant_generators", "make_term", "merge_terms", "orbit_volume", "parse_group_label",
    "partition_fiber_volume", "positive_root_product", "product_orbit_fixed_data",
    "raw_fibration_residue", "res_cone", "res_plus_1d", "rr_leading_coefficient",
    "rr_orbit_fixedpoint", "todd_restriction_identity", "tensor_multiplicity", "weight_count_dimension",
    "weight_multiplicities", "weyl_dim",
]
