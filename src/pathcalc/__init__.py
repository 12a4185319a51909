"""Probability-free pathwise calculus and hedging laboratory.

Quadratic variation along partition sequences, partition-limit integrals and
the change-of-variable identities, pathwise self-financing strategies with
their gain processes, and the explicit hedging-error formula for delta
hedges - all as deterministic numerical procedures on sampled cadlag paths.
"""

from .convergence import ConvergenceConfig
from .functionals import (
    Functional,
    asian_forward,
    black_scholes,
    builtin,
    constant_density,
    cylinder,
    diffusion_density,
    fpde_residual,
    horizontal_derivative_fd,
    identity,
    monomial,
    running_integral,
    vertical_derivative_fd,
    vertical_hessian_fd,
)
from .integration import (
    follmer_integral_functional,
    ito_residual_cylinder,
    ito_residual_functional,
)
from .partitions import PartitionSequence, dyadic, last_index_before, refine_with
from .paths import (
    SampledPath,
    StoppedPath,
    generate,
    read_path_csv,
    stack,
    stepwise_approximation,
    stop,
    write_path_csv,
)
from .quadvar import (
    QVReport,
    default_probe_times,
    norvaisa_qv_check,
    p_variation,
    qv_along,
    qv_matrix,
    vovk_uniform_check,
)
from .trading import (
    HedgeReport,
    SimpleStrategy,
    StrategyLedger,
    call_payoff,
    estimate_qv_density,
    gain_from_vertical_form,
    hedge,
    integral_payoff,
    plausibility_diagnostic,
    put_payoff,
    self_financing_check,
    simple_ledger,
    strategy_from_functional,
)

__version__ = "0.1.0"
