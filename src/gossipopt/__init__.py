"""Decentralized optimization over time-varying gossip networks.

Simulates gossip communication on changing graphs, runs an accelerated
primal solver with optional multi-round consensus, certifies its geometric
convergence through a Lyapunov monitor, and replays the worst-case
star-cycle construction whose communication floor matches the solver's
complexity.
"""

from .blockvec import mix, multi_mix, project_consensus
from .experiments import ExperimentConfig, emit, run_experiment, sweep
from .hardcase import (
    CertReport,
    HardInstance,
    SpanTracker,
    build_hard_instance,
    certify_run,
    hard_rho,
    hard_solution,
    lower_bound_curve,
)
from .objectives import (
    LogisticObjectives,
    QuadraticObjectives,
    gen_random_quadratic,
    gen_synthetic_logistic,
    reference_minimizer,
)
from .solver import (
    DivergenceError,
    Params,
    RunRecord,
    State,
    derive_params,
    effective_chi,
    init_state,
    lyapunov,
    make_reference,
    run,
    step,
)
from .topology import (
    MixingSchedule,
    TopologySchedule,
    build_mixing,
    make_schedule,
    random_geometric_schedule,
    ring_star_schedule,
    star_cycle_schedule,
    validate_gossip,
)

__version__ = "0.1.0"
