"""Traffic-distribution workbench for profiled nonlinear random matrix models."""

from .hermite import (
    Polynomial,
    expect_derivative,
    expect_product,
    expect_scaled,
    gaussian_moment,
    hermite,
    monomial,
    to_hermite,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    count_of_type,
    enumerate_set_partitions,
    is_split,
    kernel,
    restrict,
    type_of,
)
from .graphs import (
    AuxiliaryGraph,
    Edge,
    GraphMonomial,
    StrongComponentReport,
    TestGraph,
    build_auxiliary,
    classify,
    eta,
    moment_cycle,
    quotient,
    rho_tilde,
    single_edge,
    skeleton,
    split_partitions,
)
from .traffic import (
    BlockLayout,
    LabeledMatrix,
    MatrixFamily,
    combinatorial_trace,
    delta0,
    embed,
    eval_monomial,
    injective_trace,
    moebius_check,
    sample_trace,
    tau_estimate,
    tau_estimates,
)
from .models import (
    EntryLaw,
    ProfiledEnsemble,
    StepProfile,
    decompose,
    distinct_labels,
    equivalent_def,
    equivalent_lin,
    equivalent_per,
    equivalent_sampler,
    equivalent_sum,
    model_sampler,
    per_noise_family,
    pw_matrix,
    unit_skewed_law,
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
