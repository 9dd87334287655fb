"""ptflab: hard threshold-function families with exact weight/degree checks."""

from .shapes import Convention, GroupShape, ShapeError, Variant, make_shape
from .boolfun import (
    BoolFun,
    EvalError,
    assignment_of_index,
    index_of_assignment,
    make_g,
    make_gt,
    make_hard,
)
from .tuple_order import (
    ChainStep,
    DominanceChain,
    OrderContext,
    OrderError,
    compare,
    dominance_chain,
    enumerate_ordered,
    from_ordinals,
    oracle_compare,
    order_bits,
    ordinal,
    ordinals,
)
from .polynomial import (
    IntPolynomial,
    PolynomialError,
    from_uv,
    symmetric_coefficient,
    symmetrize,
    to_uv,
    witness_gate,
)
from .exact_lp import (
    BudgetError,
    IlpResult,
    LpError,
    LpOutcome,
    LpProblem,
    check_farkas,
    check_l1_bound,
    check_witness,
    ilp_min,
    min_l1,
    problem_from_text,
    problem_to_text,
)
from .threshold_analysis import (
    AnalysisError,
    CertifyResult,
    Counterexample,
    HypothesisError,
    MinWeightResult,
    RepresentationLadder,
    RepresentationProblem,
    build_representation_problem,
    certify_coefficient_lemma,
    check_sign_representation,
    theorem_bound,
)
from .pipeline import Finding, ShapeResult, Verdict, run_shape
from .harness import (
    ExperimentSpec,
    ResultRow,
    preset,
    replay_certificate,
    run,
)

__version__ = "0.1.0"
