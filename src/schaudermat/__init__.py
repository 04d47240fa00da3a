"""Finite-section Schauder basis toolkit.

Constructs Haar-type conditional-basis matrices, computes basis and
unconditional constants via natural projections, runs spectral selection
procedures, and certifies at desk scale that diagonal operators such as
diag(1, 1/2, 1/3, ...) map an orthonormal basis into a conditional basis.
"""

from .kernel import (
    PolarFactors,
    SingularMatrixError,
    condition_number,
    invert,
    polar_decompose,
)
from .olevskii import (
    ConditionalModel,
    OlevskiiPlan,
    PlanValidation,
    PlanValidationError,
    haar_matrix,
    keylemma_assemble,
    olevskii_block,
    rank1_conjugation_witness,
    summing_counterexample,
    validate_plan,
    weight_vector,
)
from .schauder import (
    BasisPair,
    ConstantEstimate,
    RieszReport,
    SearchBudget,
    basis_constant,
    biorthogonal_inverse,
    quasinormality_bounds,
    riesz_diagnostic,
    transform_left,
    transform_right_diagonal,
    transform_right_permutation,
    unconditional_constant,
)
from .selection import (
    HarmonicDemoReport,
    InsufficientCardinalityError,
    RatioLimitReport,
    SelectionResult,
    SpectrumSequence,
    cardinality_profile,
    geometric_spectrum,
    harmonic_demo,
    harmonic_spectrum,
    parse_spectrum,
    ratio_limit_check,
    segment_cut,
    select_subsets,
)
from .textio import load_matrix, save_matrix

__version__ = "0.1.0"
