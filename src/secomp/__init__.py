"""Secure lossless source compression with side information.

Computes compression-equivocation rate regions when a legitimate receiver
and an eavesdropper each hold correlated side information, checks the
information orderings (stochastic degradation, less noisy) that decide when
plain Slepian-Wolf binning is already optimal, and validates achievability
by simulating random-binning codes at small blocklength.
"""

from .binning import (
    BinningCode,
    SimReport,
    exact_posterior_entropy,
    make_binning_code,
    run_erasure_encoder_scheme,
    run_sw_binning,
)
from .erasure import (
    ErasureParams,
    erasure_delta,
    gap_filler_u,
    make_erasure_joint,
    optimal_u_for_switches,
)
from .orderings import (
    OrderingVerdict,
    check_stochastic_degradation,
    is_physically_degraded,
    search_less_noisy_violation,
)
from .probability import (
    Alphabet,
    Channel,
    DistributionError,
    JointPMF,
    build_joint,
    entropy_of,
    marginalize,
    mutual_information_of,
    rename_variable,
)
from .regions import (
    CodedBoundResult,
    OptResult,
    OptimizerConfig,
    SwitchConfig,
    closed_form_delta,
    coded_inner_bound_sample,
    maximize_equivocation,
    secrecy_objective,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BinningCode",
    "Channel",
    "CodedBoundResult",
    "DistributionError",
    "ErasureParams",
    "JointPMF",
    "OptResult",
    "OptimizerConfig",
    "OrderingVerdict",
    "SimReport",
    "SwitchConfig",
    "build_joint",
    "check_stochastic_degradation",
    "closed_form_delta",
    "coded_inner_bound_sample",
    "entropy_of",
    "erasure_delta",
    "exact_posterior_entropy",
    "gap_filler_u",
    "is_physically_degraded",
    "make_binning_code",
    "make_erasure_joint",
    "marginalize",
    "maximize_equivocation",
    "mutual_information_of",
    "optimal_u_for_switches",
    "rename_variable",
    "run_erasure_encoder_scheme",
    "run_sw_binning",
    "search_less_noisy_violation",
    "secrecy_objective",
]
