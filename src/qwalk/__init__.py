"""Time-bin quantum walk simulator with threshold detection.

Gaussian-state propagation of realistic sources through a programmable
coined walk, heralded and unheralded click statistics on APDs behind
Kerr-style routing gates, and an independent truncated Fock-space
oracle for cross-validation.

The top level holds what a run needs; every layer is importable from
its own submodule (`qwalk.walk`, `qwalk.gaussian`, `qwalk.detection`,
`qwalk.fock`, `qwalk.experiments`, `qwalk.metrics`, `qwalk.io`,
`qwalk.config`, `qwalk.errors`).
"""

from .experiments import ExperimentSpec, run_experiment, verify_against_oracle
from .walk import WalkConfig

__version__ = "0.1.0"

__all__ = ["ExperimentSpec", "WalkConfig", "run_experiment", "verify_against_oracle"]
