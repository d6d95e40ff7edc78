"""Numerical toolkit for weighted composition operators on disk function spaces.

Builds the operators f -> F * (f o phi) from expression trees with
exact Taylor rules, evaluates norms in ten families of analytic
function spaces on the unit disk, and decides invertibility and
surjective isometry from the structure of the symbols, reporting
measured evidence for every verdict.
"""

from .analytic_core import (
    Add,
    AnalyticExpr,
    Compose,
    Const,
    Family,
    Moebius,
    MoebiusMap,
    Mul,
    Poly,
    PolyFamily,
    Pow,
    R_MAX,
    Recip,
    TreeFamily,
    as_family,
    image_family,
    moebius_inverse,
    rotation_map,
    series,
    winding_number,
)
from .axiom_harness import ALL_FAMILIES, AxiomReport, run_all
from .characterization import (
    AutomorphismFit,
    InvertibilityReport,
    IsometryReport,
    MultiplierVerdict,
    check_invertible,
    check_isometry,
    count_zeros,
    detect_automorphism,
    inverse_symbols,
    multiplier_test,
)
from .minilang import format_expression, parse_expression
from . import cli  # loaded with the package, so wcolab.cli.main is reachable from it
from .errors import (
    BranchError,
    ContourZero,
    DegenerateInput,
    DomainError,
    NonVanishingViolation,
    ParameterError,
    ParseError,
    SingularMatrix,
    UnsupportedSpace,
    WcolabError,
)
from .operators import (
    FiniteSection,
    WcoSymbols,
    apply,
    condition_number,
    default_probe_family,
    finite_section,
    isometry_defect,
    monomial,
    random_polynomials,
)
from .quadrature import GridConfig, default_config, weighted_radial_integral
from .spaces import NormBreakdown, SpaceSpec, norm, norms, parse_space, pointeval_bound, seminorm, seminorms

__version__ = "0.1.0"
