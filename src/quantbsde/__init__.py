"""Recursive marginal quantization solver for 1-d decoupled FBSDEs.

Pipeline: quantize the Euler scheme of the forward diffusion layer by layer
(`rmq`), then run the explicit backward recursion for value and control on
the resulting tree (`bsde_solver`). `model` ships the built-in problems and
closed-form oracles, `report` the sweep/hedge artifacts, `cli` the console
front end. The core path is fully deterministic; Monte Carlo appears only
in an optional benchmark.
"""

from .bsde_solver import (
    BackwardSolution,
    ControlLayer,
    ValueLayer,
    backward_step,
    ps_control_benchmark,
    solve,
    terminal_layer,
)
from .gaussian import normal_cdf
from .model import (
    MODELS,
    BergmanParams,
    BlackScholesParams,
    FbsdeProblem,
    GbmParams,
    ModelSpec,
    bs_control,
    bs_price,
    make_bergman,
    make_black_scholes,
    make_gbm,
)
from .report import (
    HedgeRow,
    SweepResult,
    SweepSpec,
    emit_csv,
    emit_json,
    hedge_compare,
    run_sweep,
)
from .rmq import (
    ConvergenceError,
    DegenerateDiffusionWarning,
    OptimizerSettings,
    QuantizationTree,
    QuantizedLayer,
    TimeGrid,
    TransitionMatrix,
    build_tree,
    conditional_law,
    distortion_gradient,
    load_tree,
    mixture_distortion,
    optimize_grid,
    save_tree,
    transition_matrix,
)

__version__ = "0.1.0"
