"""Recursive marginal quantization solver for 1-d decoupled FBSDEs.

Pipeline: quantize the Euler scheme of the forward diffusion layer by layer
(`rmq`), then run the explicit backward recursion for value and control on
the resulting tree (`bsde_solver`). `model` ships the built-in problems and
closed-form oracles, `report` the sweep/hedge artifacts, `cli` the console
front end. The core path is fully deterministic; Monte Carlo appears only
in an optional benchmark.
"""

# Each module's ``__all__`` is its one list of public names.
from .bsde_solver import *
from .gaussian import *
from .model import *
from .report import *
from .rmq import *

__version__ = "0.1.0"
