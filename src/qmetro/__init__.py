"""Precision tradeoff bounds for multi-parameter quantum estimation under
measurements collective on at most p copies of the probe state."""

from . import (
    bounds,
    checks,
    cli,
    errors,
    linalg,
    logderiv,
    random_instances,
    report,
    scenarios,
    states,
    tensor,
    variational,
)
from .bounds import (
    cp_bound,
    cs_transforms,
    f_of_n,
    fbar_bound,
    gamma_inf_lower,
    gamma_inf_upper,
    pure_state_bound,
    reference_bounds,
    rld_cp_bound,
    rld_standard_bound,
    saturation_check,
    tp_bound,
)
from .logderiv import (
    compute_fisher,
    compute_rld,
    compute_rld_fisher,
    compute_sld,
    reparametrize,
    sld_analysis,
)
from .report import ReportConfig, build_report
from .scenarios import build_scenario, parse_scenario
from .states import EvaluatedState, StateFamily, evaluate
from .tensor import (
    block_sweep,
    compute_fbar_im,
    compute_tp_exact,
    compute_tp_monte_carlo,
    limit_fim,
)
from .variational import (
    LocalMeasurement,
    MinimizeConfig,
    evaluate_general_bound,
    minimize_bound,
    observables_from_measurement,
    project_unbiased,
)

__version__ = "0.1.0"
