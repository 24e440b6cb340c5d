"""hopfgrow: exact invariants and growth bounds for pointed Hopf algebras.

The package builds Hopf algebras from finite presentations (an abelian
group of group-likes, skew-primitive generators, and oriented rewrite
rules), computes their coalgebra structure and skew-primitive invariants
exactly, evaluates lower bounds for the GK-dimension, runs the
exponential-growth detectors, and cross-checks everything against the
measured growth function.
"""

from .bounds import (BoundReport, GrowthVerdict, all_bounds, bound_first,
                     bound_second, bound_third, detect_exponential)
from .catalog import (EXAMPLES, build_example, exterior_presentation,
                      qplane_presentation, run_example_check,
                      skew_free_presentation, skew_trunc_presentation,
                      taft_presentation)
from .coalgebra import (SkewPrimitiveSpace, antipode, counit, delta,
                        delta_power_formula, find_skew_primitives,
                        is_skew_primitive)
from .cyclotomic import CycloField, CycloRational, cyclotomic_polynomial
from .elements import AlgebraElement, TensorElement
from .errors import (ConsistencyError, NonConfluentError, PresentationError,
                     ResourceCeilingError, ScalarShapeError)
from .fileformat import (load_presentation, parse_element_expr,
                         parse_presentation_data, parse_scalar_expr,
                         presentation_to_jsonable)
from .groups import GroupData, cyclic_support
from .growth import (GrowthReport, PbwScan, dp_word_counts, measure_growth,
                     pbw_dependence_scan)
from .invariants import (InvariantReport, WeightCommutator, WitnessRecord,
                         compute_invariants, generalized_commutator)
from .presentation import Presentation, RewriteRule, SkewGenerator
from .scalars import (INFINITE, Scalar, ScalarDomain, UnitMonomial,
                      multiplicative_order, quantum_binomial, subgroup_rank)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
