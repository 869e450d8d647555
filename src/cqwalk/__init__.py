"""Open-system simulator of a discrete-time quantum walk on a chain of
superconducting qutrits linked by cavities.

The walk step is compiled to three global pulse segments (coin drive,
qutrit-to-cavity transfer, cavity-to-next-qutrit transfer) and evolved
under a Lindblad master equation; the resulting walker distribution is
scored against the exact walk by the squared Bhattacharyya overlap.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .harness import (Report, SweepSpec, emit_distribution, emit_plot_script,
                      emit_report, initial_state, run_experiment, run_sweep)
from .idealwalk import CoinState, coin_matrix, coin_preset, run_ideal
from .lindblad import DecoherenceRates, EvolutionResult, IntegrationError
from .metrics import similarity_report
from .protocol import Segment, build_schedule

__version__ = "0.1.0"

__all__ = [
    "CoinState", "ConfigError", "DecoherenceRates", "EvolutionResult",
    "ExperimentConfig", "IntegrationError", "Report", "Segment",
    "SweepSpec", "build_schedule", "coin_matrix", "coin_preset",
    "emit_distribution", "emit_plot_script", "emit_report",
    "initial_state", "load_config", "run_experiment", "run_ideal",
    "run_sweep", "similarity_report",
]
