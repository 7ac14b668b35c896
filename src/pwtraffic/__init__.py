"""Traffic-distribution workbench for profiled nonlinear random matrix models."""

from .hermite import (
    Polynomial,
    expect_derivative,
    expect_product,
    expect_scaled,
    f_kernel,
    gaussian_moment,
    hermite,
    monomial,
    theta_coefficients,
    to_hermite,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    count_of_type,
    enumerate_set_partitions,
    is_split,
    kernel,
    pair_partitions,
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
    is_forest_defect,
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
    lambda_ell,
    model_sampler,
    per_noise_family,
    pw_matrix,
    second_moment_profile,
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
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
