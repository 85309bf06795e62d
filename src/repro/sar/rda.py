"""Range-Doppler algorithm: the frequency-domain comparator.

Paper Section I: "SAR signal processing can be performed in the
frequency domain by using Fast Fourier Transform (FFT) technique, which
is computationally efficient but requires that the flight trajectory is
linear and has constant speed.  The back-projection integration
technique ... it is possible to compensate for non-linear flight
tracks."

This module implements the classic range-Doppler algorithm (RDA) so
that claim is testable inside this repository: azimuth FFT, range-cell
migration correction (RCMC) in the range-Doppler domain, azimuth
matched filtering from the stationary-phase spectrum, inverse FFT.
On a linear track RDA focuses as well as back-projection at a fraction
of the arithmetic; on a perturbed track it degrades and has no hook for
compensation -- which is why the paper's system is built on (factorized)
back-projection plus autofocus.

Geometry: the output image is indexed by (azimuth position x, closest
range R0); for our flat 2-D geometry that *is* a Cartesian ground grid
(the track runs along y = 0), returned as a
:class:`~repro.sar.grids.CartesianImage`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf import memoize
from repro.sar.config import RadarConfig
from repro.sar.grids import CartesianGrid, CartesianImage
from repro.signal.interpolation import (
    CubicStencil,
    apply_cubic_stencil,
    cubic_stencil,
)


def azimuth_wavenumbers(cfg: RadarConfig) -> np.ndarray:
    """FFT azimuth wavenumber axis ``kx`` for the pulse grid."""
    return 2.0 * np.pi * np.fft.fftfreq(cfg.n_pulses, d=cfg.spacing)


def migration_factor(cfg: RadarConfig, kx: np.ndarray) -> np.ndarray:
    """The cosine factor ``beta = sqrt(1 - (kx / 2k)^2)``.

    In the range-Doppler domain a scatterer at closest range ``R0``
    appears at range ``R0 / beta`` (hyperbolic range migration); RCMC
    resamples each azimuth-frequency line to undo that.  Wavenumbers
    beyond the evanescent limit ``|kx| >= 2k`` carry no signal and are
    zeroed by the caller.
    """
    ratio = kx / (2.0 * cfg.wavenumber)
    return np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0))


@dataclass(frozen=True)
class RdaTables:
    """The data-independent half of :func:`range_doppler_image`.

    Everything here depends on the radar configuration alone, so it is
    memoized per ``cfg`` (:func:`rda_tables`); only the FFTs, the RCMC
    gather and the phase multiply touch the data.
    """

    live: np.ndarray
    """``(P,)``: azimuth lines inside the evanescent / grating cut-off."""
    rows: np.ndarray
    """Indices of the live lines."""
    rcmc: CubicStencil | None
    """Cubic stencil resampling each live line at ``R0 / beta``
    (``None`` below the 4 range bins a cubic stencil needs)."""
    phase: np.ndarray
    """``(P, J)`` azimuth-compression phase."""


def _build_rda_tables(cfg: RadarConfig) -> RdaTables:
    k2 = 2.0 * cfg.wavenumber
    kx = azimuth_wavenumbers(cfg)  # (P,)
    beta = migration_factor(cfg, kx)  # (P,)
    live = beta > 0.05  # evanescent / grating cut-off
    rows = np.nonzero(live)[0]
    r_axis = cfg.range_axis()
    # RCMC: line kx needs the sample at r_obs = R0 / beta for output
    # bin R0.
    r_src = r_axis / beta[rows, None]  # (n_live, J) source ranges
    positions = (r_src - cfg.r0) / cfg.dr
    # Azimuth compression.  By stationary phase, after RCMC the line
    # (kx, R0) carries
    #     exp(j (2 k R0 / beta  -  kx x_t  -  2 k beta R0))
    # (the first term is the data-side carrier sampled at the migrated
    # source position R0/beta, the last the hyperbolic phase history).
    # The matched filter cancels everything but the target-position
    # ramp -kx x_t:
    safe_beta = np.where(live, beta, 1.0)
    phase = np.exp(
        1j * k2 * np.outer(safe_beta - 1.0 / safe_beta, r_axis)
    )  # (P, J)
    return RdaTables(
        live=live,
        rows=rows,
        rcmc=(
            cubic_stencil(positions, rows.size, cfg.n_ranges)
            if cfg.n_ranges >= 4
            else None
        ),
        phase=phase,
    )


def rda_tables(cfg: RadarConfig) -> RdaTables:
    """The memoized :class:`RdaTables` for ``cfg`` (frozen arrays)."""
    return memoize("sar/rda-tables", cfg, lambda: _build_rda_tables(cfg))


def range_doppler_image(
    data: np.ndarray,
    cfg: RadarConfig,
    rcmc: bool = True,
) -> CartesianImage:
    """Form an image with the range-Doppler algorithm.

    Parameters
    ----------
    data:
        Pulse-compressed data, shape ``(n_pulses, n_ranges)``, in the
        carrier-retained convention of :mod:`repro.sar.simulate`.
    cfg:
        Radar configuration (assumed linear, constant-speed track --
        RDA's defining requirement).
    rcmc:
        Apply range-cell migration correction (disabling it is the
        classic failure mode for long apertures; exposed for tests).

    Returns
    -------
    CartesianImage on the (azimuth, closest-range) grid.
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.shape != (cfg.n_pulses, cfg.n_ranges):
        raise ValueError(
            f"data shape {data.shape} != ({cfg.n_pulses}, {cfg.n_ranges})"
        )
    tables = rda_tables(cfg)
    live = tables.live[:, None]

    # 1. Azimuth FFT: range lines become range-Doppler lines.
    rd = np.fft.fft(data, axis=0)

    # 2. RCMC: straighten the migration curves.
    if rcmc:
        straightened = np.zeros_like(rd)
        if tables.rows.size:
            if tables.rcmc is None:
                raise ValueError(
                    f"RCMC needs >= 4 range bins, got {cfg.n_ranges}"
                )
            straightened[tables.rows] = apply_cubic_stencil(
                rd[tables.rows], tables.rcmc
            )
        rd = straightened
    else:
        rd = np.where(live, rd, 0.0)

    # 3. Azimuth compression (phase derived in _build_rda_tables).
    rd = np.where(live, rd * tables.phase, 0.0)

    # 4. Back to azimuth position.
    image = np.fft.ifft(rd, axis=0)

    grid = CartesianGrid(
        x=cfg.trajectory().positions(cfg.n_pulses)[:, 0],
        y=cfg.range_axis(),
    )
    # CartesianImage is row-major in y (range); transpose from (x, r).
    return CartesianImage(grid=grid, data=image.T)


def rda_flop_estimate(cfg: RadarConfig) -> float:
    """Rough arithmetic cost of one RDA image (for the comparison
    against back-projection): three length-P FFT passes over J range
    lines plus the pointwise RCMC/compression work."""
    p, j = cfg.n_pulses, cfg.n_ranges
    fft = 5.0 * p * np.log2(max(p, 2)) * j * 2  # forward + inverse
    pointwise = 20.0 * p * j  # RCMC interp + phase multiply
    return fft + pointwise
