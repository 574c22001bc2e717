"""SparsEst: the paper's sparsity-estimation benchmark (Section 5).

- :mod:`repro.sparsest.metrics` — M1 accuracy (relative error, ARE) and M2
  timing metrics.
- :mod:`repro.sparsest.datasets` — synthetic stand-ins for the paper's six
  real datasets (see DESIGN.md for the substitution rationale).
- :mod:`repro.sparsest.generators` — structured inputs for the B1 use cases.
- :mod:`repro.sparsest.usecases` — B1.1–B1.5, B2.1–B2.5, B3.1–B3.5.
- :mod:`repro.sparsest.runner` — executes estimators over use cases and
  collects accuracy/timing results.
- :mod:`repro.sparsest.report` — ASCII tables shaped like the paper's
  figures.
"""

from repro.sparsest.metrics import (
    absolute_ratio_error,
    aggregate_relative_error,
    relative_error,
)
from repro.sparsest.runner import (
    AUTO_LABEL,
    EstimateOutcome,
    EstimationRequest,
    EstimationResult,
    execute,
    execute_outcomes,
    requests_for,
)
from repro.sparsest.usecases import (
    UseCase,
    all_use_cases,
    get_use_case,
    use_case_ids,
)

__all__ = [
    "AUTO_LABEL",
    "EstimateOutcome",
    "EstimationRequest",
    "EstimationResult",
    "UseCase",
    "absolute_ratio_error",
    "aggregate_relative_error",
    "all_use_cases",
    "execute",
    "execute_outcomes",
    "get_use_case",
    "relative_error",
    "requests_for",
    "use_case_ids",
]
