"""Constraint-labeled decision diagrams for probabilistic logic programs.

Build a diagram for a ground query with :class:`EvalSession`, compute its
probability exactly with :func:`exact_probability` (optionally behind
the measurability check), or estimate it by likelihood-weighted sampling
with :func:`estimate`.  :func:`brute_force_probability` is the independent
possible-worlds oracle used to certify everything else.
"""

from .constraints import (
    AtomicConstraint,
    ConstraintFormula,
    TRUE,
    canonical_key,
    close,
    compatible,
    eq,
    formula,
    is_saturated,
    measure,
    negate,
    neq,
    satisfiable,
    solutions,
    substitution,
)
from .diagram import (
    Leaf,
    Mdd,
    Node,
    ONE,
    Osdd,
    SwitchInstance,
    SwitchRef,
    ZERO,
    apply_constraint,
    bound_vars,
    combine,
    free_vars,
    ground,
    make_node,
    mdd_combine,
    node_count,
    normalize,
    osdd_and,
    osdd_or,
    to_proper,
    validate,
)
from .diagram_io import format_osdd, parse_osdd, to_dot
from .engine import EvalSession, evaluate, transform
from .errors import (
    DiagramError,
    EvalError,
    OracleError,
    OsddError,
    ParseError,
    SolverLimitError,
    UsageError,
)
from .exact import (
    DistMap,
    MeasurabilityReport,
    exact_probability,
    exact_probability_measurable,
    infer,
    mdd_probability,
    measurability,
)
from .oracle import (
    GenLimits,
    brute_force_probability,
    closed_form_birthday,
    iter_worlds,
    random_program,
)
from .program import Clause, Distribution, Program, SwitchSpec, parse_program
from .sampling import (
    EstimatorState,
    WeightedSample,
    estimate,
    lw_sample,
    make_rng,
)
from .terms import GroundTerm, TypeDomain, Var, domain_of_symbols

__version__ = "0.1.0"
