"""Test-wide configuration: numpy's ComplexWarning is an error.

A cast of complex values to float keeps their real parts alone and says so
only through that warning, so every such cast fails the suite instead of
passing with a warning. The class moved to ``numpy.exceptions`` in numpy
1.25; older releases, which ``pyproject.toml`` still allows, keep it at the
top level.
"""

import numpy as np


def pytest_configure(config):
    exceptions = getattr(np, "exceptions", None)
    warning = getattr(exceptions, "ComplexWarning", None) or np.ComplexWarning
    config.addinivalue_line(
        "filterwarnings", f"error::{warning.__module__}.{warning.__qualname__}"
    )
