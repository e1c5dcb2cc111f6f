"""Constructive reduction of representing measures to at most m components.

Any measure with more atoms (or mixture components) than basis functions has
a linearly dependent column set: a null vector of the column matrix gives a
direction in weight space along which the moment vector is constant.  Walking
that direction until the first weight hits zero removes at least one atom per
step without changing any moment, so at most k - m steps reach k <= m.
"""
from __future__ import annotations

import numpy as np

from .basis import MonomialBasis
from .errors import ReductionError
from .measures import AtomicMeasure, MixtureMeasure
from .moments import component_moments

__all__ = ["reduce_atoms", "reduce_mixture_components"]

_DROP_TOL = 1e-14


def _null_direction(V: np.ndarray) -> np.ndarray:
    """Unit null vector of the column matrix, refined to machine precision."""
    _, sv, vt = np.linalg.svd(V)
    lam = vt[-1]
    # one refinement step pushes the residual V @ lam to second order
    correction, *_ = np.linalg.lstsq(V, V @ lam, rcond=None)
    lam = lam - correction
    norm = np.linalg.norm(lam)
    if norm == 0:
        raise ReductionError(
            f"null-vector refinement collapsed; singular values {sv.tolist()}"
        )
    lam /= norm
    residual = np.linalg.norm(V @ lam, ord=np.inf)
    scale = max(1.0, float(np.abs(V).max()))
    if residual > 1e-10 * scale:
        raise ReductionError(
            f"no reliable null vector: residual {residual:.3e} at matrix scale {scale:.3e}, "
            f"smallest singular value {sv[-1]:.3e}"
        )
    return lam


def _step_weights(V: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stepping iteration: returns (new weights, surviving index mask)."""
    lam = _null_direction(V)
    # orient so a positive entry exists; then t = min c_i / lam_i over lam_i > 0
    # drives the first weight to zero while keeping the rest nonnegative
    if lam[np.argmax(np.abs(lam))] < 0:
        lam = -lam
    positive = lam > _DROP_TOL
    if not np.any(positive):
        # cannot happen for k > m with positive weights; guarded anyway
        raise ReductionError("null vector has no positive entry in either orientation")
    ratios = weights[positive] / lam[positive]
    t = float(np.min(ratios))
    new_weights = weights - t * lam
    # relative to the weight scale, so a measure of tiny total mass keeps its atoms
    keep = new_weights > _DROP_TOL * float(np.max(weights))
    if keep.all():
        # force out the argmin if rounding left it marginally positive
        drop = np.where(positive)[0][np.argmin(ratios)]
        keep[drop] = False
    return new_weights, keep


def _reduce_columns(columns: np.ndarray, weights: np.ndarray, m: int):
    """Run the stepping loop; returns (weights, surviving original indices)."""
    idx = np.arange(weights.shape[0])
    w = weights.copy()
    V = columns.copy()
    while w.shape[0] > m:
        new_w, keep = _step_weights(V, w)
        w = new_w[keep]
        V = V[:, keep]
        idx = idx[keep]
    return w, idx


def reduce_atoms(basis: MonomialBasis, mu: AtomicMeasure) -> AtomicMeasure:
    """Shrink an atomic measure to at most m atoms with the same moments."""
    if mu.k <= basis.m:
        return mu
    columns = component_moments(basis, "gaussian", mu.points, np.zeros(mu.k)).T
    w, idx = _reduce_columns(columns, mu.weights, basis.m)
    return AtomicMeasure(weights=w, points=mu.points[idx])


def reduce_mixture_components(
    basis: MonomialBasis, kind: str, mu: MixtureMeasure
) -> MixtureMeasure:
    """Shrink a mixture to at most m components with the same moments."""
    if mu.kind != kind:
        raise ValueError(f"mixture kind {mu.kind!r} does not match {kind!r}")
    if mu.k <= basis.m:
        return mu
    columns = component_moments(basis, kind, mu.means, mu.sigmas).T
    w, idx = _reduce_columns(columns, mu.weights, basis.m)
    return MixtureMeasure(
        kind=kind, weights=w, means=mu.means[idx], sigmas=mu.sigmas[idx]
    )
