"""The package's public surface, pinned name by name.

Each module's ``__all__`` feeds ``quantbsde``'s namespace, so a name added to
or dropped from any of them shows here. The names are read in a fresh
interpreter: a submodule another test imports (``quantbsde.cli``) would
otherwise appear as a package attribute.
"""

import os
import subprocess
import sys
from pathlib import Path

import quantbsde

PUBLIC_NAMES = [
    "BackwardSolution",
    "BergmanParams",
    "BlackScholesParams",
    "ControlLayer",
    "ConvergenceError",
    "DegenerateDiffusionWarning",
    "FbsdeProblem",
    "HedgeRow",
    "MODELS",
    "ModelSpec",
    "OptimizerSettings",
    "QuantizationTree",
    "QuantizedLayer",
    "SweepResult",
    "SweepSpec",
    "TimeGrid",
    "TransitionMatrix",
    "ValueLayer",
    "backward_step",
    "bs_control",
    "bs_price",
    "bsde_solver",
    "build_tree",
    "conditional_law",
    "distortion_gradient",
    "emit_csv",
    "emit_json",
    "gaussian",
    "hedge_compare",
    "load_tree",
    "make_bergman",
    "make_black_scholes",
    "mixture_distortion",
    "model",
    "normal_cdf",
    "optimize_grid",
    "ps_control_benchmark",
    "report",
    "rmq",
    "run_sweep",
    "save_tree",
    "solve",
    "terminal_layer",
    "transition_matrix",
]


def test_public_names_are_unchanged():
    src_dir = str(Path(quantbsde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    code = (
        "import quantbsde; "
        "print('\\n'.join(sorted(n for n in dir(quantbsde) if not n.startswith('_'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
