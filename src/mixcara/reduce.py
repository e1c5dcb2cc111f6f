"""Constructive reduction of representing measures to at most m components.

Any measure with more atoms (or mixture components) than basis functions has
a linearly dependent column set: a null vector of the column matrix gives a
direction in weight space along which the moment vector is constant.  Walking
that direction until the first weight hits zero removes an atom without
changing any moment.

While more than 2m columns are live, reduction runs in recombination
rounds (Litterer & Lyons 2012; Maalouf, Jubran & Feldman 2019).  The live
columns, in input order, are split into 2m contiguous groups of near-equal
size; each group is replaced by its mass and its weighted mean column, and
the walk below runs on that m-by-2m matrix of means with the group masses as
weights.  Every atom of a group is then scaled by the group's new mass over
its old one, which keeps every moment, so the groups the walk drops leave at
once: about half of the live atoms go per round, and k atoms take about
log2(k/2m) rounds and then one walk, where walks on 2m-column windows alone
take about k/m SVDs.

With at most 2m columns live, the walk runs on them in input order, until
at most m are left.  One SVD gives a basis of the null space; each basis
direction in turn removes one atom, after which the dropped coordinate is
eliminated from the remaining directions by a rank-one update, so they stay
null vectors of the surviving columns.  A direction that fails the residual
check, or a step that zeroes two weights at once, ends the walk early and
the live columns are factored afresh.  Survivors are input rows, in input
order.
"""
from __future__ import annotations

import math

import numpy as np

from .basis import MonomialBasis
from .errors import ReductionError
from .measures import AtomicMeasure, MixtureMeasure
from .moments import component_moments

__all__ = ["reduce_atoms", "reduce_mixture_components"]

_DROP_TOL = 1e-14
_NULL_TOL = 1e-10
# rounds run while more than this many times m columns are live: a round
# forms 2m groups, so it needs more than 2m columns, and at most 2m take one
# walk on the columns themselves
_ROUNDS_ABOVE = 2


def _null_basis(V: np.ndarray, scale: float) -> np.ndarray:
    """Unit null vectors of ``V`` as columns, refined once if unreliable."""
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
    """Step the weights ``w`` of the columns of ``V`` in place along each
    null direction.

    Dropped columns get weight exactly 0.  Returns early, leaving the rest of
    the basis unused, when a direction fails the residual check or a step
    zeroes more than one weight.
    """
    # contiguous columns, so ``col @ col`` sums in the order np.linalg.norm does
    N = np.asfortranarray(_null_basis(V, scale))
    tol = _NULL_TOL * scale
    for j in range(N.shape[1]):
        col = N[:, j]
        lam = col / math.sqrt(col @ col)
        if j and np.abs(V @ lam).max() > tol:
            return
        # orient so a positive entry exists; then t = min c_i / lam_i over lam_i > 0
        # drives the first weight to zero while keeping the rest nonnegative
        if lam[np.abs(lam).argmax()] < 0:
            lam = -lam
        positive = (lam > _DROP_TOL).nonzero()[0]
        if positive.size == 0:
            # cannot happen for more live columns than rows with positive weights
            raise ReductionError("null vector has no positive entry in either orientation")
        ratios = w[positive] / lam[positive]
        first = ratios.argmin()
        i = positive[first]
        live = w > 0
        # relative to the weight scale, so a measure of tiny total mass keeps its atoms
        threshold = _DROP_TOL * w.max()
        w -= ratios[first] * lam
        # the argmin goes out even if rounding left it marginally positive
        w[i] = 0.0
        keep = w > threshold
        w[~keep] = 0.0
        if np.count_nonzero(live & ~keep) > 1:
            return  # a tie: the other directions are not zero on the extra atoms
        rest = N[:, j + 1:]
        rest -= lam[:, None] * (rest[i] / lam[i])
        rest[i] = 0.0


def _reduce_columns(columns: np.ndarray, weights: np.ndarray, m: int):
    """Run the rounds, then walk the live columns; returns (weights,
    surviving original indices)."""
    scale = max(1.0, float(np.abs(columns).max()))
    w = weights.copy()
    live = np.arange(weights.shape[0])
    while live.size > m:
        wl = w[live]
        if live.size > _ROUNDS_ABOVE * m:
            starts = np.arange(2 * m) * live.size // (2 * m)
            mass = np.add.reduceat(wl, starts)
            means = np.add.reduceat(columns[:, live] * wl, starts, axis=1) / mass
            new_mass = mass.copy()
            _walk_null_basis(means, new_mass, scale)
            w[live] = wl * np.repeat(new_mass / mass, np.diff(starts, append=live.size))
        else:
            _walk_null_basis(columns[:, live], wl, scale)
            w[live] = wl
        live = live[w[live] > 0]
    return w[live], live


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
