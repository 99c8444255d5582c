"""Standard-normal distribution function and density.

Every cell integral downstream (cell masses, distortion, transition
probabilities) is built from ``cdf_and_pdf``: Phi(a) - 1{a > 0}, which keeps
both tails' relative precision, and phi(a) of a finite 1-d array, sharing one
exp. ``normal_cdf`` adds the 1 back: it is the pure form for scalars or arrays
of any shape, exact 0/1 at infinite arguments, so no NaN leaks out of a tail.

The distribution function is numpy arithmetic on the rational Chebyshev
approximations of erf and erfc of Cody, "Rational Chebyshev approximations
for the error function" (Math. Comp. 1969), in the branch layout and with
the coefficients of the cephes ``ndtr``: with x = a/sqrt(2), the erf
rational for |x| < 1, exp(-x^2) P(|x|)/Q(|x|) for 1 <= |x| < 8 and
exp(-x^2) R(|x|)/S(|x|) beyond. It agrees with cephes to about 5e-16
relative wherever the value is a normal double.

``_real`` is here, in the leaf module, as the one rule for the kind and
shape of every array the package is given.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal_cdf"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

# Numerator and denominator coefficients of the three rationals, highest
# power first, as the two rows of one array, for Horner's rule on both at
# once or on one row (P and Q); leading zeros pad the lower-degree row, a
# leading 1 is a monic denominator, and padding changes no intermediate bit.
# erfc(z) = exp(-z^2) P(z)/Q(z) on 1 <= z < 8
_PQ = (
    (2.46196981473530512524e-10, 1.0),
    (5.64189564831068821977e-1, 1.32281951154744992508e1),
    (7.46321056442269912687e0, 8.67072140885989742329e1),
    (4.86371970985681366614e1, 3.54937778887819891062e2),
    (1.96520832956077098242e2, 9.75708501743205489753e2),
    (5.26445194995477358631e2, 1.82390916687909736289e3),
    (9.34528527171957607540e2, 2.24633760818710981792e3),
    (1.02755188689515710272e3, 1.65666309194161350182e3),
    (5.57535335369399327526e2, 5.57535340817727675546e2),
)
# erfc(z) = exp(-z^2) R(z)/S(z) on z >= 8
_RS = (
    (0.0, 1.0),
    (5.64189583547755073984e-1, 2.26052863220117276590e0),
    (1.27536670759978104416e0, 9.39603524938001434673e0),
    (5.01905042251180477414e0, 1.20489539808096656605e1),
    (6.16021097993053585195e0, 1.70814450747565897222e1),
    (7.40974269950448939160e0, 9.60896809063285878198e0),
    (2.97886665372100240670e0, 3.36907645100081516050e0),
)
# erf(x) = x T(x^2)/U(x^2) on |x| < 1
_TU = (
    (0.0, 1.0),
    (9.60497373987051638749e0, 3.35617141647503099647e1),
    (9.00260197203842689217e1, 5.21357949780152679795e2),
    (2.23200534594684319226e3, 4.59432382970980127987e3),
    (7.00332514112805075473e3, 2.26290000613890934246e4),
    (5.55923013010394962768e4, 4.92673942608635921086e4),
)
_PQ, _RS, _TU = (np.array(c)[:, :, None] for c in (_PQ, _RS, _TU))


def _horner2(x, coefs):
    """Horner's rule in ``x`` on ``coefs`` (highest power first): both rows of
    a rational as one 2-row array, or one row ``coefs[:, i]`` as one array."""
    y = coefs[0] * x
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def cdf_and_pdf(a) -> tuple[np.ndarray, np.ndarray]:
    """Phi(a) - 1{a > 0} and phi(a) of a finite 1-d float array, sharing one
    exp: -Phi(-a) on a > 0, which stays small in the upper tail.

    ``a`` is written: it must be a float64 temporary of the caller's, whose
    memory holds x = a/sqrt(2), then |x|, then exp(-x^2), and is returned as
    the pdf. The cdf is an array of its own, the numerator of the
    1 <= |x| < 8 rational, whose denominator is freed once divided. So a call
    peaks about 19.5 bytes per value above ``a`` and returns 8 beyond it.
    NaN passes through; infinite entries are the caller's to handle (see
    ``normal_cdf``). Each branch keeps the cephes order of operations.
    """
    x = np.multiply(a, _SQRT1_2, out=a)
    positive = x > 0.0
    near = np.abs(x) < 1.0
    xs = x[near]
    z = np.abs(x, out=x)  # the sign is kept in ``positive`` and ``xs``
    far = np.flatnonzero(z >= 8.0)
    # erfc(|x|) = exp(-x^2) P/Q on 1 <= |x| < 8 and exp(-x^2) R/S beyond
    cdf = _horner2(z, _PQ[:, 0])
    q = _horner2(z, _PQ[:, 1])
    rs = _horner2(z[far], _RS) if far.size else None
    e = np.multiply(z, z, out=z)  # |x| is spent; exp(-x^2) takes its place
    np.negative(e, out=e)
    np.exp(e, out=e)
    # cdf = erfc(|x|)/2 = Phi(-|a|), negated where a > 0
    np.multiply(e, cdf, out=cdf)  # e first: a NaN keeps e's sign bit
    cdf /= q
    del q
    cdf *= 0.5
    if far.size:
        cdf[far] = 0.5 * (e[far] * rs[0] / rs[1])
    np.negative(cdf, out=cdf, where=positive)
    pdf = np.multiply(e, _INV_SQRT_2PI, out=e)
    # |x| < 1: cephes takes 1 - erf(|x|) from sqrt(1/2) on, which rounds to
    # the same double as 0.5 + 0.5 erf(x) because erf(|x|) >= 1/2 there.
    if xs.size:
        tu = _horner2(xs * xs, _TU)
        t = np.multiply(xs, tu[0], out=tu[0])
        t /= tu[1]
        t *= 0.5
        t += 0.5
        t -= xs > 0.0  # exact where x > 0, by Sterbenz's lemma
        cdf[near] = t
    return cdf, pdf


def _real(name: str, value, ndim: int | None = None, step: int | None = None) -> np.ndarray:
    """``value`` as a float array, not copied if it is one. Booleans (a
    digital payoff ``y > K`` is a map), integers and floats pass; complex
    values, which a cast would drop, and strings or objects, which it would
    parse, raise ``<name> must be real, got <kind> values``, or for a map's
    values ``<name> returned <kind> values at step <step>``. Given ``ndim``:
    ``<name> must be a nonempty <ndim>-d array, got shape <shape>`` unless it
    has that many dimensions and an element."""
    x = np.asarray(value)
    if x.dtype.kind not in "biuf":
        kind = x.dtype.name.rstrip("0123456789")  # complex128 -> complex, str32 -> str
        if step is None:
            raise ValueError(f"{name} must be real, got {kind} values")
        raise ValueError(f"{name} returned {kind} values at step {step}")
    if ndim is not None and (x.ndim != ndim or x.size < 1):
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {x.shape}")
    return np.asarray(x, dtype=float)


def normal_cdf(x):
    """Distribution function of N(0,1) at a real ``x`` of any shape (``_real``),
    within ~5e-16 relative of cephes ``ndtr``; exactly 0/1 at -inf/+inf, NaN for NaN."""
    x = _real("x", x)
    # Phi rounds to exactly 0/1 beyond |x| = 40, where exp(-x^2/2) is 0
    out = cdf_and_pdf(np.clip(x, -40.0, 40.0).ravel())[0].reshape(x.shape) + (x > 0.0)
    return float(out) if out.ndim == 0 else out
