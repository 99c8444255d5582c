"""Standard-normal density and distribution function.

Every cell integral downstream (cell masses, distortion, transition
probabilities) is built from these two functions. Both are pure, accept
scalars or arrays, and are exact at infinite arguments: the density is 0 and
the distribution function is 0/1 there, so no NaN can leak out of a tail
cell.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Density of N(0,1). Exactly 0 at +-inf; even in x."""
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Distribution function of N(0,1), accurate to ~1e-15 via erfc."""
    x = np.asarray(x, dtype=float)
    out = ndtr(x)
    return float(out) if out.ndim == 0 else out
