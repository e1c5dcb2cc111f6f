"""Constructive reduction of representing measures to at most m components.

Any measure with more atoms (or mixture components) than basis functions has
a linearly dependent column set: a null vector of the column matrix gives a
direction in weight space along which the moment vector is constant.  Walking
that direction until the first weight hits zero removes an atom without
changing any moment.

The sweep works on a window of at most 2m live columns, taken in input order.
One SVD of the window gives a basis of its null space; each basis direction
in turn removes one atom, after which the dropped coordinate is eliminated
from the remaining directions by a rank-one update, so they stay null
vectors of the surviving columns.  When the basis is used up the window is
refilled from the next unseen atoms and factored again, so about m atoms go
per SVD.  A direction that fails the residual check, or a step that zeroes
two weights at once, ends the walk early and the window is factored afresh.
"""
from __future__ import annotations

import numpy as np

from .basis import MonomialBasis
from .errors import ReductionError
from .measures import AtomicMeasure, MixtureMeasure
from .moments import component_moments

__all__ = ["reduce_atoms", "reduce_mixture_components"]

_DROP_TOL = 1e-14
_NULL_TOL = 1e-10


def _null_basis(V: np.ndarray, scale: float) -> np.ndarray:
    """Unit null vectors of the window as columns, refined once if unreliable."""
    tol = _NULL_TOL * scale
    _, sv, vt = np.linalg.svd(V)
    N = vt[V.shape[0]:].T
    residual = np.abs(V @ N).max()
    if residual > tol:
        # one refinement step pushes the residual V @ N to second order
        correction, *_ = np.linalg.lstsq(V, V @ N, rcond=None)
        N = N - correction
        norms = np.linalg.norm(N, axis=0)
        if not np.all(norms > 0):
            raise ReductionError(
                f"null-vector refinement collapsed; singular values {sv.tolist()}"
            )
        N /= norms
        residual = np.abs(V @ N).max()
        if residual > tol:
            raise ReductionError(
                f"no reliable null vector: residual {residual:.3e} at matrix scale {scale:.3e}, "
                f"smallest singular value {sv[-1]:.3e}"
            )
    return N


def _walk_null_basis(V: np.ndarray, w: np.ndarray, scale: float) -> None:
    """Step the window weights ``w`` in place along each null direction.

    Dropped atoms get weight exactly 0.  Returns early, leaving the rest of
    the basis unused, when a direction fails the residual check or a step
    zeroes more than one weight.
    """
    N = _null_basis(V, scale)
    for j in range(N.shape[1]):
        lam = N[:, j] / np.linalg.norm(N[:, j])
        if j and np.abs(V @ lam).max() > _NULL_TOL * scale:
            return
        # orient so a positive entry exists; then t = min c_i / lam_i over lam_i > 0
        # drives the first weight to zero while keeping the rest nonnegative
        if lam[np.argmax(np.abs(lam))] < 0:
            lam = -lam
        positive = np.flatnonzero(lam > _DROP_TOL)
        if positive.size == 0:
            # cannot happen for more live columns than rows with positive weights
            raise ReductionError("null vector has no positive entry in either orientation")
        ratios = w[positive] / lam[positive]
        i = positive[np.argmin(ratios)]
        live = w > 0
        # relative to the weight scale, so a measure of tiny total mass keeps its atoms
        threshold = _DROP_TOL * float(np.max(w))
        w -= float(ratios.min()) * lam
        # the argmin goes out even if rounding left it marginally positive
        w[i] = 0.0
        keep = w > threshold
        w[~keep] = 0.0
        if np.count_nonzero(live & ~keep) > 1:
            return  # a tie: the other directions are not zero on the extra atoms
        rest = N[:, j + 1:]
        rest -= np.outer(lam, rest[i] / lam[i])
        rest[i] = 0.0


def _reduce_columns(columns: np.ndarray, weights: np.ndarray, m: int):
    """Run the windowed sweep; returns (weights, surviving original indices)."""
    k = weights.shape[0]
    scale = max(1.0, float(np.abs(columns).max()))
    w = weights.copy()
    window = np.arange(0)
    seen = 0
    while window.size + (k - seen) > m:
        fill = min(2 * m - window.size, k - seen)
        window = np.concatenate([window, np.arange(seen, seen + fill)])
        seen += fill
        ww = w[window]
        _walk_null_basis(columns[:, window], ww, scale)
        w[window] = ww
        window = window[ww > 0]
    return w[window], window


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
