"""Generic factor-graph and sum–product machinery.

This subpackage is the probabilistic substrate of the reproduction: binary
mapping-correctness variables, dense table factors, a bipartite factor-graph
container, a loopy sum–product engine (with damping and message-loss
injection) that the compiled engine is checked against, and an
exact-inference reference used to quantify the loopy approximation error.
The :mod:`~repro.factorgraph.plan` module is the plan IR of the compiled
lane engine: it lowers structure lists to one
:class:`~repro.factorgraph.plan.SweepPlan` and runs its round phases.
"""

from .variables import (
    BINARY_DOMAIN,
    CORRECT,
    INCORRECT,
    BinaryVariable,
    DiscreteVariable,
    mapping_variable_name,
)
from .compiled import StackedCountFactorBatch, normalize_rows
from .plan import BucketPlan, SweepPlan, compile_sweep_plan
from .factors import (
    CountFactor,
    Factor,
    observation_factor,
    prior_factor,
    uniform_factor,
)
from .graph import FactorGraph
from .messages import MessageStore, message_distance, normalize, unit_message
from .sum_product import SumProduct, SumProductOptions, SumProductResult, run_sum_product
from .exact import exact_joint, exact_marginals, relative_error

__all__ = [
    "BINARY_DOMAIN",
    "CORRECT",
    "INCORRECT",
    "BinaryVariable",
    "DiscreteVariable",
    "mapping_variable_name",
    "StackedCountFactorBatch",
    "normalize_rows",
    "BucketPlan",
    "SweepPlan",
    "compile_sweep_plan",
    "CountFactor",
    "Factor",
    "observation_factor",
    "prior_factor",
    "uniform_factor",
    "FactorGraph",
    "MessageStore",
    "message_distance",
    "normalize",
    "unit_message",
    "SumProduct",
    "SumProductOptions",
    "SumProductResult",
    "run_sum_product",
    "exact_joint",
    "exact_marginals",
    "relative_error",
]
