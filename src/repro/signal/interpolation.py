"""Interpolation kernels.

Both case studies are interpolation-dominated:

- FFBP uses *simplified (nearest neighbour)* interpolation for both the
  range and angle lookups (paper Section V-B), trading image quality for
  speed -- the quality loss versus GBP in paper Fig. 7 comes from here.
- The autofocus criterion uses *cubic interpolation based on Neville's
  algorithm* (paper Section V-C, ref. [16]) swept along tilted paths.

All kernels operate on uniformly sampled data addressed in fractional
sample units and are vectorised over the evaluation positions.  They
accept real or complex sample arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def interp_nearest(samples: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Nearest-neighbour lookup at fractional ``positions``.

    Positions outside ``[0, len-1]`` return 0 -- the paper's
    "skip the additions with zero when the indices are out of range"
    optimisation, expressed as a zero contribution.
    """
    samples = np.asarray(samples)
    positions = np.asarray(positions, dtype=np.float64)
    idx = np.rint(positions).astype(np.int64)
    valid = (idx >= 0) & (idx < samples.shape[-1])
    out = np.zeros(positions.shape, dtype=samples.dtype)
    out[valid] = samples[idx[valid]]
    return out


def interp_linear(samples: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Two-point linear interpolation at fractional ``positions``.

    Out-of-range positions return 0, matching :func:`interp_nearest`.

    The degenerate single-sample case is well defined: with ``n == 1``
    the only valid position is 0, which returns ``samples[0]``; every
    other position returns 0.  (Historically the stencil clip
    ``np.clip(i0, 0, n - 2)`` had inverted bounds for ``n == 1``,
    producing index ``-1`` and a silent wraparound through
    ``samples[i0c + 1]``.)
    """
    samples = np.asarray(samples)
    positions = np.asarray(positions, dtype=np.float64)
    n = samples.shape[-1]
    if n == 0:
        raise ValueError("interp_linear needs at least one sample")
    valid = (positions >= 0.0) & (positions <= n - 1)
    if n == 1:
        # No second stencil point exists; the interpolant degenerates
        # to the constant samples[0] on the (single-point) domain.
        out = np.broadcast_to(samples[..., 0], positions.shape)
        return np.where(valid, out, np.zeros((), dtype=samples.dtype))
    i0 = np.floor(positions).astype(np.int64)
    i0c = np.clip(i0, 0, n - 2)
    fr = np.where(valid, positions - i0c, 0.0)
    out = samples[i0c] * (1.0 - fr) + samples[i0c + 1] * fr
    return np.where(valid, out, np.zeros((), dtype=samples.dtype))


def neville(xs: np.ndarray, ys: np.ndarray, x: float) -> complex:
    """Classic Neville iterated interpolation (paper ref. [16]).

    Evaluates the unique degree ``len(xs)-1`` polynomial through the
    nodes ``(xs, ys)`` at ``x`` by Neville's triangular recursion.  This
    is the scalar reference implementation the vectorised kernels are
    validated against; the pipeline kernels use the uniform-grid fast
    path :func:`neville_weights`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    p = np.array(ys, dtype=np.result_type(np.asarray(ys).dtype, np.float64))
    n = xs.size
    if n == 0 or p.shape[-1] != n:
        raise ValueError("xs and ys must be equal-length, non-empty")
    if np.unique(xs).size != n:
        raise ValueError("interpolation nodes must be distinct")
    for level in range(1, n):
        for i in range(n - level):
            j = i + level
            p[i] = ((x - xs[i]) * p[i + 1] - (x - xs[j]) * p[i]) / (xs[j] - xs[i])
    return p[0]


def neville_weights(frac: np.ndarray) -> np.ndarray:
    """Four-point cubic weights for a uniform grid.

    On equispaced nodes Neville's algorithm reduces to cubic Lagrange
    interpolation, which is linear in the four neighbouring samples.
    For a fractional position ``i + t`` (``t`` in [0, 1)) with stencil
    ``[i-1, i, i+1, i+2]``, returns the weights stacked on the last
    axis; ``w @ samples[stencil]`` evaluates the interpolant.
    """
    t = np.asarray(frac, dtype=np.float64)
    tm1 = t - 1.0
    tm2 = t - 2.0
    tp1 = t + 1.0
    w = np.stack(
        [
            -t * tm1 * tm2 / 6.0,
            tp1 * tm1 * tm2 / 2.0,
            -tp1 * t * tm2 / 2.0,
            tp1 * t * tm1 / 6.0,
        ],
        axis=-1,
    )
    return w


def interp_sinc(
    samples: np.ndarray, positions: np.ndarray, taps: int = 8, beta: float = 6.0
) -> np.ndarray:
    """Kaiser-windowed-sinc interpolation (the quality ceiling).

    The near-ideal reconstructor for band-limited data such as the
    carrier-retained range profiles: an ``taps``-point windowed sinc
    evaluated at each fractional position.  Used as the gold standard
    the cheaper kernels (nearest / linear / cubic) are judged against.

    Positions outside ``[0, len-1]`` return 0; stencils clamp at the
    array ends.
    """
    samples = np.asarray(samples)
    positions = np.asarray(positions, dtype=np.float64)
    n = samples.shape[-1]
    if taps < 2 or taps % 2:
        raise ValueError(f"taps must be even and >= 2, got {taps}")
    if n < taps:
        raise ValueError(f"sinc interpolation needs >= {taps} samples, got {n}")
    half = taps // 2
    i0 = np.clip(np.floor(positions).astype(np.int64), half - 1, n - half - 1)
    t = positions - i0
    offsets = np.arange(-(half - 1), half + 1)  # taps relative offsets
    x = t[..., None] - offsets  # (..., taps) distances to taps
    # Kaiser window over the stencil extent.
    from numpy import i0 as bessel_i0

    win_arg = 1.0 - (x / half) ** 2
    window = np.where(
        win_arg > 0, bessel_i0(beta * np.sqrt(np.maximum(win_arg, 0.0))), 0.0
    ) / bessel_i0(beta)
    w = np.sinc(x) * window
    # Normalise so constants reproduce exactly (guarding degenerate
    # all-zero stencils at far out-of-range positions, masked below).
    norm = np.sum(w, axis=-1, keepdims=True)
    w = w / np.where(np.abs(norm) > 1e-12, norm, 1.0)
    stencil = i0[..., None] + offsets
    vals = samples[stencil]
    out = np.einsum("...k,...k->...", w, vals)
    valid = (positions >= 0.0) & (positions <= n - 1)
    return np.where(valid, out, np.zeros((), dtype=out.dtype))


def cubic_neville(samples: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Four-point cubic (Neville/Lagrange) interpolation.

    Stencils are clamped at the array ends (the 6x6 autofocus blocks are
    small enough that edge stencils matter); positions outside
    ``[0, len-1]`` return 0.
    """
    samples = np.asarray(samples)
    positions = np.asarray(positions, dtype=np.float64)
    n = samples.shape[-1]
    if n < 4:
        raise ValueError(f"cubic interpolation needs >= 4 samples, got {n}")
    i0 = np.floor(positions).astype(np.int64)
    # Clamp so the 4-point stencil [i0-1 .. i0+2] stays in range.
    i0c = np.clip(i0, 1, n - 3)
    t = positions - i0c
    w = neville_weights(t)
    stencil = i0c[..., None] + np.arange(-1, 3)
    vals = samples[stencil]
    out = np.einsum("...k,...k->...", w, vals)
    valid = (positions >= 0.0) & (positions <= n - 1)
    return np.where(valid, out, np.zeros((), dtype=out.dtype))


@dataclass(frozen=True)
class CubicStencil:
    """Sample-independent half of a row-batched cubic interpolation.

    Built once by :func:`cubic_stencil` from the evaluation positions
    alone, so a caller resampling many sample arrays along the same
    paths (RDA's RCMC on a fixed grid) can keep it and pay only the
    gather and the 4-tap sum per call (:func:`apply_cubic_stencil`).
    """

    shape: tuple[int, int]
    """``(rows, n)`` of the sample arrays the stencil applies to."""
    index: np.ndarray
    """``(rows, n_pos, 4)`` flat indices into the row-major samples of
    the clamped stencils ``[i-1 .. i+2]``."""
    weights: np.ndarray
    """``(rows, n_pos, 4)`` Neville weights (:func:`neville_weights`)."""
    valid: np.ndarray
    """``(rows, n_pos)``: position inside ``[0, n-1]``."""


def cubic_stencil(positions: np.ndarray, rows: int, n: int) -> CubicStencil:
    """Stencil tables for :func:`cubic_neville_rows` over ``(rows, n)``.

    ``positions`` is ``(n_pos,)`` (one path for every row) or
    ``(rows, n_pos)`` (a path per row).
    """
    if n < 4:
        raise ValueError(f"cubic interpolation needs >= 4 samples, got {n}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim == 1:
        positions = np.broadcast_to(positions, (rows, positions.shape[0]))
    if positions.ndim != 2 or positions.shape[0] != rows:
        raise ValueError(
            f"positions shape {positions.shape} does not match {rows} rows"
        )
    i0 = np.floor(positions).astype(np.int64)
    i0c = np.clip(i0, 1, n - 3)
    row_start = n * np.arange(rows, dtype=np.int64)[:, None]
    return CubicStencil(
        shape=(rows, n),
        index=(row_start + i0c)[..., None] + np.arange(-1, 3),
        weights=neville_weights(positions - i0c),
        valid=(positions >= 0.0) & (positions <= n - 1),
    )


def apply_cubic_stencil(samples: np.ndarray, stencil: CubicStencil) -> np.ndarray:
    """Interpolate the rows of ``samples`` through prebuilt ``stencil``."""
    if samples.shape != stencil.shape:
        raise ValueError(
            f"samples shape {samples.shape} != stencil shape {stencil.shape}"
        )
    vals = samples.reshape(-1)[stencil.index]
    out = np.einsum("...k,...k->...", stencil.weights, vals)
    return np.where(stencil.valid, out, np.zeros((), dtype=out.dtype))


def cubic_neville_rows(
    samples: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Row-batched :func:`cubic_neville`.

    Interpolates every row of a ``(rows, n)`` sample array in one
    vectorised pass: ``positions`` is either ``(n_pos,)`` (the same
    path for every row) or ``(rows, n_pos)`` (a per-row path, e.g. the
    tilted resampling paths of the autofocus criterion or the per-line
    RCMC shifts).  Replaces the per-row Python loops that used to
    dominate ``resample_range``/``shift_stage_data``/RCMC; each output
    element is the same 4-tap weighted sum the scalar-row kernel
    computes, so results are bit-identical.  The work splits into
    :func:`cubic_stencil` (positions only) and
    :func:`apply_cubic_stencil` (the samples).
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError(
            f"cubic_neville_rows needs (rows, n) samples, got {samples.shape}"
        )
    return apply_cubic_stencil(samples, cubic_stencil(positions, *samples.shape))
