"""Spectrum of the finite-rank Hessian perturbation induced by the spikes.

Conditioned on the overlap profile m, the landscape Hessian at a critical
point looks like a GOE matrix plus a rank-r perturbation.  The perturbation is
built from per-spike curvature weights theta_i and the Gram matrix of the
projected spike directions; its eigenvalues gamma_1 >= ... >= gamma_r feed the
large-deviation rates that separate saddles from local maxima.  Both functions
take one overlap point of shape (r,) or a stack of shape (N, r) and compute
over its leading axes, so one point needs no wrapper; a stack is
diagonalized as one batch, with the same bits as its points one by one.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _LAZY
from .core import ModelParams, _points

__all__ = [name for name, home in _LAZY.items() if home == "spikes"]


def perturbation_factors(
    params: ModelParams, m: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature weights theta and the Gram matrix of projected spike directions.

    theta_i = sqrt(2 / (p(p-1))) * k_i (k_i - 1) * lam_i * m_i^{k_i-2} (1 - m_i^2);
    the Gram matrix has unit diagonal and off-diagonal entries
    -m_i m_j / sqrt((1 - m_i^2)(1 - m_j^2)).  Requires |m_i| < 1 for all i.
    Shapes (r,) and (r, r) for one point, (N, r) and (N, r, r) for a stack.
    """
    pts = _points(params, m)
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("perturbation is degenerate at |m_i| = 1")
    p = params.p
    k = np.asarray(params.k, dtype=int)
    lam = np.asarray(params.lam, dtype=float)
    rem = 1.0 - pts * pts
    # a float exponent array of the full shape: a broadcast or integer exponent
    # can send numpy down its scalar-exponent fast path (x*x for 2), whose bits
    # differ from the power loop that a single point of r > 1 takes
    power = pts ** np.tile(k - 2.0, pts.shape[:-1] + (1,))
    theta = math.sqrt(2.0 / (p * (p - 1))) * k * (k - 1) * lam * power * rem
    root = np.sqrt(rem)
    gram = -(pts[..., :, None] * pts[..., None, :]) / (root[..., :, None] * root[..., None, :])
    diag = np.arange(params.r)
    gram[..., diag, diag] = 1.0
    return theta, gram


def spike_eigenvalues(params: ModelParams, m: Sequence[float] | np.ndarray) -> np.ndarray:
    """Eigenvalues of the rank-r Hessian perturbation, sorted descending.

    The perturbation D_theta * Gram is diagonalized through the symmetric
    conjugate sqrt(D_theta) * Gram * sqrt(D_theta) when all theta_i >= 0
    (the case m in [0,1]^r, where the result is also >= 0 entrywise); a
    general eigensolver handles mixed signs.  Shape (r,) for one point,
    (N, r) for a stack, whose matrices are solved in one batched call.
    At r = 1 the eigenvalue is theta itself, +inf where a huge spike
    overflows it; at r > 1 a perturbation that overflows (an infinite or
    NaN entry) has no spectrum to report and raises ValueError.
    """
    theta, gram = perturbation_factors(params, m)
    vals = theta
    if params.r > 1:
        # sqrt(|theta|) is sqrt(theta) on the rows that keep the symmetric form
        root = np.sqrt(np.abs(theta))
        sym = gram * (root[..., :, None] * root[..., None, :])
        mixed = ~np.all(theta >= 0.0, axis=-1)
        # a boolean mask picks rows of a stack, and one point as a row
        general = theta[mixed][..., :, None] * gram[mixed]
        # the diagonal of sym is |theta|, so this also checks theta
        if not (np.isfinite(sym).all() and np.isfinite(general).all()):
            raise ValueError(f"the spike perturbation overflows the float range at lam = {params.lam}")
        # eigvalsh sorts ascending
        vals = np.linalg.eigvalsh(sym)
        if mixed.any():
            vals[mixed] = np.sort(np.linalg.eigvals(general).real, axis=-1)
        vals = vals[..., ::-1]
    return vals


def spike_eigenvalues_r2(params: ModelParams, m: Sequence[float]) -> tuple[float, float]:
    """Closed form for the two perturbation eigenvalues at rank 2."""
    if params.r != 2:
        raise ValueError(f"closed form requires r = 2, got r = {params.r}")
    theta, gram = perturbation_factors(params, m)
    th1, th2 = float(theta[0]), float(theta[1])
    c = float(gram[0, 1])
    s = th1 + th2
    d = math.sqrt((th1 - th2) ** 2 + 4 * th1 * th2 * c * c)
    return 0.5 * (s + d), 0.5 * (s - d)
