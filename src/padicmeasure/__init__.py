"""Exact p-adic Haar measures of cellularly presented definable families.

The package decides equality of such families by computing their measure
functions in closed form (guarded exponential polynomials over the integer
parameters) and testing identical vanishing; it also normalizes presentations
to combinations of finite-fiber generators with replayable certificates.
"""

from .algebra import clear_caches
from .measure import (
    BoxCell,
    Coordinate,
    DegenerateCoordinate,
    DivergesError,
    ExpPolynomial,
    InputError,
    MEASURE_ZERO,
    MeasureFunction,
    NonZeroWitness,
    PAdicContext,
    Weight,
    ZeroInputError,
    ac_level,
    cell_to_weighted_sum,
    exp_poly_eval,
    exp_poly_is_zero,
    sum_closed_form,
    valuation,
)
from .oracle import (
    BoxTable,
    Bracket,
    BudgetExceededError,
    WindowTooSmallError,
    brute_force_qe,
    truncated_measure,
)
from .presburger import (
    Atom,
    ExpansionBudgetError,
    Formula,
    FormulaSyntaxError,
    LinearTerm,
    MissingAssignmentError,
    NotQuantifierFreeError,
    conj,
    equivalent_on_box,
    evaluate_qf,
    format_formula,
    parse,
    parse_term,
    qe,
)
from .ring import (
    BasicPresentation,
    Certificate,
    CertificateStep,
    ContextMismatchError,
    Equal,
    NotEqual,
    Presentation,
    add,
    ball_presentation,
    certificate_from_document,
    certificate_to_document,
    decide_equal,
    delta_presentation,
    from_document,
    measure_function,
    multiply,
    normalize_to_basic,
    presentation,
    scalar_mul,
    to_document,
    unit_presentation,
    verify_certificate,
    weighted_presentation,
    with_unit_ball,
)
from .semilinear import (
    GuardedCell,
    InfiniteFiberError,
    NotRectilinearizableError,
    OutOfDomainError,
    PiecewisePolynomial,
    count_parametric,
    rectilinearize,
    to_cells,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
