"""Exact-arithmetic divisor theory on metric graphs.

Chip-firing, reduced divisors via the burning algorithm, Baker-Norine
rank, tropical Riemann-Roch verification, and tropical independence of
piecewise-linear functions, specialized to chains of loops for the
rho = 0 Brill-Noether experiments.  All arithmetic is exact rational.
"""
from .errors import (GenericityError, GraphError, PreconditionError,
                     ReductionCapError, SearchCapError, TheoremViolation,
                     TropdivError)
from .graph import (BNParams, ChainOfLoops, Divisor, Interval, MetricGraph,
                    Point, Region, canonical_divisor, contains_point_in,
                    default_generic_chain)
from .plfunc import (PLFunction, agreement_region, distance_function, in_R,
                     min_combination, minchips_holds, obstruction_holds)
from .reduce import (ReductionResult, default_base, default_rank_points,
                     dhar_unburnt, effective_class, find_unoccupied_edge,
                     is_equivalent, is_reduced, rank, rank_subdivision_oracle,
                     riemann_roch_check, v_reduce)
from .independence import (DependenceCertificate, IndependenceCertificate,
                           IndependenceReport, find_dependence,
                           strict_offsets, unique_min_locus,
                           verify_dependence, verify_independence)
from .chainbn import (GPReport, ShapeProfile, Tableau, adjoint_divisor,
                      build_Dj, build_Ek, canonical_shape_check,
                      chips_on_each_loop_check, enumerate_tableaux,
                      gp_rho_zero_experiment, hook_length_count,
                      is_wg_reduced_shape, shape_profile, tableau_to_divisor,
                      tableau_to_dyck)
from .sampling import (SplitMix64, random_divisor, random_effective_divisor,
                       random_point, random_R_member)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
