"""stochaction: a 1-D testbed for dynamics driven by a stochastic action
principle — signed random action scales, exponentially distributed action
deviations, coupled amplitude/phase transport, a uniquely ordered quantum
Hamiltonian, and guided-ensemble equivariance checks."""
from ._version import __version__
from .errors import (ConfigurationError, NodeError, NumericalError,
                     ShapeError, StochactionError)
from .lattice import GridSpec, build_grid
from .hamiltonian import (ClassicalSpec, QuantumOperator,
                          build_naive_ordering, build_quantum_hamiltonian,
                          hermiticity_defect, make_system)
from .evolution import (WaveState, coherent_state, gaussian_packet,
                        ground_state, propagate_crank_nicolson,
                        propagate_eigen_oracle)
from .madelung import MadelungState, from_polar, step_coupled_pde, to_polar
from .classical import PhasePoint, integrate_path
from .stochastic import (EnsembleState, LambdaSource, bohmian_velocity,
                         init_ensemble, propagate_ensemble,
                         sample_action_deviation, sample_lambda)
from .harness import parse_config, run_command

__all__ = [
    "__version__",
    "StochactionError", "ConfigurationError", "ShapeError", "NodeError",
    "NumericalError",
    "GridSpec", "build_grid",
    "ClassicalSpec", "QuantumOperator", "make_system",
    "build_quantum_hamiltonian", "build_naive_ordering", "hermiticity_defect",
    "WaveState", "gaussian_packet", "coherent_state", "ground_state",
    "propagate_crank_nicolson", "propagate_eigen_oracle",
    "MadelungState", "to_polar", "from_polar", "step_coupled_pde",
    "PhasePoint", "integrate_path",
    "LambdaSource", "EnsembleState",
    "sample_lambda", "sample_action_deviation",
    "bohmian_velocity", "init_ensemble", "propagate_ensemble",
    "parse_config", "run_command",
]
