"""Exact fusion-rule algebra for anyon models.

Represents fusion rules with exact integer tensors, decides acyclicity via
adjoint-graph cycle detection and nilpotency via the descending central
series, builds the standard example families (pointed rules, SU(2)_k, named
fixtures, Drinfeld doubles of finite groups), and exhaustively enumerates
small fusion rules as an independent oracle for the equivalence of the two
notions.
"""

from .acyclicity import (
    AdjointGraph,
    CycleWitness,
    adjoint_graph,
    find_cycle,
    is_acyclic,
)
from .core import (
    FPDimData,
    FusionRule,
    ValidationReport,
    Violation,
    fp_dimensions,
    product,
    validate,
)
from .errors import (
    CapacityError,
    FusionError,
    NumericalError,
    StructuralError,
    UnknownFixtureError,
)
from .explorer import EnumSpec, TheoremSurvey, enumerate_rules, survey
from .generators import drinfeld_double, fixture_names, named_fixture, pointed, su2k
from .groups import (
    CharacterTable,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    character_table,
    cyclic,
    dihedral,
    direct_product,
    is_nilpotent,
    lower_central_series,
    quaternion8,
)
from .io import dot_graph, dump_group, dump_rule, parse_group, parse_rule
from .nilpotency import (
    CentralSeries,
    LabelSet,
    adjoint_subrule,
    central_series,
    closure,
    restrict,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointGraph",
    "CapacityError",
    "CentralSeries",
    "CharacterTable",
    "CycleWitness",
    "EnumSpec",
    "FPDimData",
    "FiniteGroup",
    "FusionError",
    "FusionRule",
    "LabelSet",
    "NumericalError",
    "StructuralError",
    "TheoremSurvey",
    "UnknownFixtureError",
    "ValidationReport",
    "Violation",
    "adjoint_graph",
    "adjoint_subrule",
    "builtin_group",
    "builtin_group_names",
    "central_series",
    "character_table",
    "closure",
    "cyclic",
    "dihedral",
    "direct_product",
    "dot_graph",
    "drinfeld_double",
    "dump_group",
    "dump_rule",
    "enumerate_rules",
    "find_cycle",
    "fixture_names",
    "fp_dimensions",
    "is_acyclic",
    "is_nilpotent",
    "lower_central_series",
    "named_fixture",
    "parse_group",
    "parse_rule",
    "pointed",
    "product",
    "quaternion8",
    "restrict",
    "su2k",
    "survey",
    "validate",
]
