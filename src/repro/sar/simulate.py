"""Raw-data simulation for point-target scenes.

The paper's input stimulus is "pulse compressed radar data ... 1001
range bins for each of the 1024 pulses" over a six-point test scene
(paper Fig. 7a shows the curved range-migration paths).  We regenerate
an equivalent stimulus two ways:

- :func:`simulate_compressed` -- the fast path: synthesise the
  pulse-compressed response directly from the closed form of a
  matched-filtered LFM point echo (sinc envelope carrying the carrier
  phase).  This is what tests and benchmarks use.
- :func:`simulate_raw` + :func:`compress` -- the honest path: generate
  the chirp echoes sample by sample and push them through the
  :class:`~repro.signal.pulse_compression.MatchedFilter`.  An
  integration test checks the two paths agree.

The noise-free part of :func:`simulate_compressed` depends only on
``(cfg, scene, trajectory, antenna)``, so it is built once per such
tuple and memoized through :func:`repro.perf.memoize` (kind
``"sar/clean-echo"``); each call adds its own seeded noise on top.
Served images and fixed-scene sweeps therefore pay the per-target
accumulation once per grid.

Signal convention (see :mod:`repro.sar.config`): a target at range
``R`` contributes ``A * env(r - R) * exp(j 2 k_c (r - R))`` to the
range profile, i.e. the carrier is retained in the range variable.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.scene import Scene
from repro.geometry.trajectory import Trajectory
from repro.perf import memoize
from repro.sar.config import RadarConfig
from repro.signal.chirp import C0
from repro.signal.pulse_compression import MatchedFilter

DEFAULT_NOISE_SEED = 1234
"""Documented default seed for the additive-noise draw.

A *single* fixed seed keeps one-off simulations reproducible, but it
silently correlates nominally independent Monte-Carlo draws: callers
running ensembles MUST pass per-draw seeds, e.g. derived with
:func:`repro.exec.derive_seed` from the run's root seed and a stable
task key (this is exactly what the parallel experiment executor
does)."""


def target_ranges(
    cfg: RadarConfig, scene: Scene, trajectory: Trajectory | None = None
) -> np.ndarray:
    """Distances from every pulse position to every target.

    Returns shape ``(n_pulses, n_targets)``.
    """
    traj = trajectory if trajectory is not None else cfg.trajectory()
    antenna = traj.positions(cfg.n_pulses)  # (P, 2)
    tpos = scene.positions()  # (T, 2)
    diff = antenna[:, None, :] - tpos[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def compressed_envelope(delta_r: np.ndarray, resolution: float) -> np.ndarray:
    """Envelope of a matched-filtered LFM pulse vs range offset.

    The compressed pulse of an ideal LFM chirp is ``sinc(delta_r / res)``
    (NumPy's normalised sinc), with ``res = c / (2B)`` the Rayleigh
    resolution.
    """
    return np.sinc(delta_r / resolution)


def simulate_compressed(
    cfg: RadarConfig,
    scene: Scene,
    trajectory: Trajectory | None = None,
    dtype: np.dtype | type = np.complex64,
    antenna: "Antenna | None" = None,
    noise_sigma: float = 0.0,
    seed: int | np.random.Generator = DEFAULT_NOISE_SEED,
) -> np.ndarray:
    """Pulse-compressed data matrix, shape ``(n_pulses, n_ranges)``.

    Each pixel is two 32-bit floats by default (``complex64``), matching
    the paper's data layout ("two 32-bit floating-point numbers
    corresponding to the real and imaginary components").

    Parameters
    ----------
    antenna:
        Optional beam-pattern model
        (:mod:`repro.geometry.antenna`); the two-way gain per
        (pulse, target) scales the echoes.  Default: isotropic.
    noise_sigma:
        Standard deviation per real/imaginary component of additive
        complex white noise (post-compression thermal noise).
    seed:
        Seed (or ready :class:`numpy.random.Generator`) for the noise
        draw.  Defaults to :data:`DEFAULT_NOISE_SEED` (= 1234) so a
        single simulation stays reproducible, and is **explicit** so
        Monte-Carlo ensembles cannot silently share one stream:
        independent draws must pass independent seeds (derive them
        with :func:`repro.exec.derive_seed`).
    """
    clean = memoize(
        "sar/clean-echo",
        (cfg, scene, trajectory, antenna),
        lambda: _clean_echo(cfg, scene, trajectory, antenna),
    )
    data = clean
    if noise_sigma > 0.0:
        gen = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        # Out of place: a memoized ``clean`` is frozen and shared.
        data = clean + noise_sigma * (
            gen.standard_normal(clean.shape)
            + 1j * gen.standard_normal(clean.shape)
        )
    return data.astype(dtype)


def _clean_echo(
    cfg: RadarConfig,
    scene: Scene,
    trajectory: Trajectory | None,
    antenna: "Antenna | None",
) -> np.ndarray:
    """Noise-free complex128 echo matrix of :func:`simulate_compressed`."""
    ranges = target_ranges(cfg, scene, trajectory)  # (P, T)
    amps = scene.amplitudes()  # (T,)
    r_axis = cfg.range_axis()  # (J,)
    k2 = 2.0 * cfg.wavenumber
    data = np.zeros((cfg.n_pulses, cfg.n_ranges), dtype=np.complex128)
    if antenna is not None and len(scene) > 0:
        traj = trajectory if trajectory is not None else cfg.trajectory()
        gains = antenna.gain(
            traj.positions(cfg.n_pulses), scene.positions()
        )  # (P, T)
    else:
        gains = None
    # Accumulate per target: (P, 1) against (1, J) broadcasts to (P, J).
    for t in range(ranges.shape[1]):
        delta = r_axis[None, :] - ranges[:, t, None]
        env = compressed_envelope(delta, cfg.range_resolution)
        echo = amps[t] * env * np.exp(1j * k2 * delta)
        if gains is not None:
            echo = echo * gains[:, t, None]
        data += echo
    return data


def simulate_raw(
    cfg: RadarConfig,
    scene: Scene,
    trajectory: Trajectory | None = None,
) -> np.ndarray:
    """Uncompressed chirp echoes, shape ``(n_pulses, n_ranges)``.

    The receive window is aligned with the range-bin grid: sample ``j``
    is taken at fast time ``2 (r0 + j dr) / c`` after transmit.  A
    target at range ``R`` therefore appears as the transmitted chirp
    delayed so its centre sits at range bin position ``R``, carrying
    the two-way carrier phase ``exp(j 2 k_c (r - R))``.
    """
    ranges = target_ranges(cfg, scene, trajectory)  # (P, T)
    amps = scene.amplitudes()
    r_axis = cfg.range_axis()
    k2 = 2.0 * cfg.wavenumber
    rate = cfg.chirp.chirp_rate
    half_extent = 0.5 * cfg.chirp.duration * C0 / 2.0  # chirp half-length in range
    data = np.zeros((cfg.n_pulses, cfg.n_ranges), dtype=np.complex128)
    for t in range(ranges.shape[1]):
        delta = r_axis[None, :] - ranges[:, t, None]  # range offset from target
        tau = 2.0 * delta / C0  # fast-time offset from echo centre
        inside = np.abs(delta) <= half_extent
        chirp_phase = np.pi * rate * tau * tau
        data += np.where(
            inside,
            amps[t] * np.exp(1j * (k2 * delta + chirp_phase)),
            0.0,
        )
    return data


def compress(cfg: RadarConfig, raw: np.ndarray) -> np.ndarray:
    """Matched-filter raw echoes from :func:`simulate_raw`.

    The replica is the chirp sampled on the range-bin grid *including*
    the carrier term, so compression preserves the carrier-retained
    convention of :func:`simulate_compressed`.
    """
    n_rep = int(round(cfg.chirp.duration * C0 / 2.0 / cfg.dr))
    n_rep = max(4, n_rep | 1)  # odd length, centred replica
    offsets = cfg.dr * (np.arange(n_rep) - (n_rep - 1) / 2.0)
    tau = 2.0 * offsets / C0
    k2 = 2.0 * cfg.wavenumber
    replica = np.exp(1j * (k2 * offsets + np.pi * cfg.chirp.chirp_rate * tau * tau))
    mf = MatchedFilter(replica)
    compressed = mf.apply(raw)
    # The correlator peaks at the lag of the echo *start*; the replica
    # is centred, so a target at bin j peaks at index j - half.  Shift
    # by +half to realign.  Targets must sit at least ``half`` bins
    # into the window (true for any sensible scene) or they wrap.
    half = (n_rep - 1) // 2
    return np.roll(compressed, half, axis=-1)
