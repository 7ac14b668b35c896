"""Traffic-distribution workbench for profiled nonlinear random matrix models."""

from .hermite import (
    Polynomial,
    expect_derivative,
    expect_scaled,
    gaussian_moment,
    hermite,
    monomial,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
)
from .graphs import (
    AuxiliaryGraph,
    Edge,
    StrongComponentReport,
    TestGraph,
    build_auxiliary,
    classify,
    eta,
    moment_cycle,
    quotient,
    single_edge,
    split_partitions,
)
from .traffic import (
    BlockLayout,
    LabeledMatrix,
    MatrixFamily,
    combinatorial_trace,
    sample_trace,
    tau_estimates,
)
from .models import (
    EntryLaw,
    ProfiledEnsemble,
    StepProfile,
    decompose,
    distinct_labels,
    equivalent_lin,
    equivalent_sampler,
    equivalent_sum,
    model_sampler,
    power_sums,
    pw_matrix,
    z_lambda,
)
from .limits import (
    LimitParams,
    delta0_graphon,
    eta_support_scan,
    limit_B,
    limit_equivalent_sum,
    limit_lin,
    limit_per,
    limit_pw,
    limit_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
