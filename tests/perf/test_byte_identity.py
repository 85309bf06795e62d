"""Byte identity of the performance layer.

The memo and the vectorised kernels are *plumbing*: every cached or
batched path must produce bit-for-bit the arrays (and, on the machine
side, the exact integer cycle counts) the pre-performance-layer code
produced.  These tests compare the live paths against
``memo_disabled()`` cold builds and against scalar reference loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.geometry.antenna import StripmapAntenna
from repro.geometry.scene import PointTarget, Scene
from repro.geometry.trajectory import PerturbedTrajectory
from repro.perf import clear_memo, memo_disabled, memo_stats, memoize
from repro.sar.config import RadarConfig
from repro.sar.ffbp import FfbpOptions, ffbp, stage_maps
from repro.sar.rda import range_doppler_image, rda_tables
from repro.sar.simulate import simulate_compressed
from repro.signal.interpolation import (
    apply_cubic_stencil,
    cubic_neville,
    cubic_neville_rows,
    cubic_stencil,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture(scope="module")
def tiny_data(tiny_cfg):
    c = tiny_cfg.scene_center()
    return simulate_compressed(tiny_cfg, Scene.single(float(c[0]), float(c[1])))


def _tree(cfg):
    return SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)


class TestStageMapsIdentity:
    def test_memo_equals_cold_every_stage(self, tiny_cfg):
        tree = _tree(tiny_cfg)
        for level in range(1, tree.n_stages + 1):
            hot = stage_maps(tiny_cfg, tree, level)
            with memo_disabled():
                cold = stage_maps(tiny_cfg, tree, level)
            assert hot.beam_idx.tobytes() == cold.beam_idx.tobytes()
            assert hot.range_idx.tobytes() == cold.range_idx.tobytes()
            assert hot.valid.tobytes() == cold.valid.tobytes()
            assert hot.residual_r.tobytes() == cold.residual_r.tobytes()

    def test_memo_hit_is_same_object(self, tiny_cfg):
        tree = _tree(tiny_cfg)
        assert stage_maps(tiny_cfg, tree, 1) is stage_maps(tiny_cfg, tree, 1)

    def test_cached_maps_are_frozen(self, tiny_cfg):
        maps = stage_maps(tiny_cfg, _tree(tiny_cfg), 1)
        with pytest.raises(ValueError):
            maps.beam_idx[0, 0, 0] = 0

    def test_keep_geometry_is_a_distinct_entry(self, tiny_cfg):
        tree = _tree(tiny_cfg)
        plain = stage_maps(tiny_cfg, tree, 1)
        geom = stage_maps(tiny_cfg, tree, 1, keep_geometry=True)
        assert plain.child_r is None
        assert geom.child_r is not None


class TestFfbpIdentity:
    @pytest.mark.parametrize(
        "options",
        [
            FfbpOptions(),
            FfbpOptions(interpolation="bilinear"),
            FfbpOptions(phase_correction=False),
        ],
        ids=["nearest", "bilinear", "no-phase"],
    )
    def test_image_memo_equals_cold(self, tiny_cfg, tiny_data, options):
        hot = ffbp(tiny_data, tiny_cfg, options)
        clear_memo()
        with memo_disabled():
            cold = ffbp(tiny_data, tiny_cfg, options)
        assert hot.data.dtype == cold.data.dtype
        assert hot.data.tobytes() == cold.data.tobytes()

    def test_plan_memo_equals_cold(self, tiny_cfg):
        from repro.kernels.ffbp_common import plan_ffbp

        hot = plan_ffbp(tiny_cfg)
        with memo_disabled():
            cold = plan_ffbp(tiny_cfg)
        assert len(hot.stages) == len(cold.stages)
        for h, c in zip(hot.stages, cold.stages):
            assert h.valid_frac.tobytes() == c.valid_frac.tobytes()
            assert h.reads_row_total.tobytes() == c.reads_row_total.tobytes()
            assert h.reads_row_ext.tobytes() == c.reads_row_ext.tobytes()
            assert h.med_row.tobytes() == c.med_row.tobytes()
            assert h.window_rows == c.window_rows


class TestMachineIdentityAcrossMemoState:
    """Cycle counts are memo-invariant on every registry backend."""

    @pytest.mark.parametrize("backend", ["event:e16", "analytic:e16"])
    def test_ffbp_cycles_identical(self, tiny_cfg, backend):
        from repro.kernels.ffbp_common import plan_ffbp
        from repro.kernels.ffbp_spmd import run_ffbp_spmd
        from repro.machine.backends import get_machine

        hot = run_ffbp_spmd(get_machine(backend), plan_ffbp(tiny_cfg), 16)
        clear_memo()
        with memo_disabled():
            cold = run_ffbp_spmd(
                get_machine(backend), plan_ffbp(tiny_cfg), 16
            )
        assert hot.cycles == cold.cycles
        assert hot.energy_joules == cold.energy_joules


class TestRowBatchedCubicIdentity:
    """cubic_neville_rows == per-row cubic_neville, bit for bit."""

    def test_shared_path(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(9, 40)) + 1j * rng.normal(size=(9, 40))
        pos = np.linspace(-2.0, 42.0, 37)
        batched = cubic_neville_rows(samples, pos)
        for i in range(samples.shape[0]):
            row = cubic_neville(samples[i], pos)
            assert batched[i].tobytes() == row.tobytes()

    def test_per_row_paths(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(6, 32))
        pos = rng.uniform(-1.0, 32.0, size=(6, 20))
        batched = cubic_neville_rows(samples, pos)
        for i in range(6):
            assert batched[i].tobytes() == cubic_neville(samples[i], pos[i]).tobytes()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros(8), np.zeros(3))  # not 2-D
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros((2, 3)), np.zeros(3))  # n < 4
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros((2, 8)), np.zeros((3, 5)))  # row mismatch


def _two_targets(cfg) -> Scene:
    x, y = (float(v) for v in cfg.scene_center())
    return Scene((PointTarget(x, y), PointTarget(x + 3.0, y + 5.0, 0.5j)))


class TestCleanEchoIdentity:
    """simulate_compressed through the ``sar/clean-echo`` memo."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"noise_sigma": 0.05, "seed": 3},
            {"antenna": StripmapAntenna(beamwidth=0.3)},
            {"trajectory": PerturbedTrajectory(amplitude=0.5)},
            {
                "antenna": StripmapAntenna(beamwidth=0.3),
                "trajectory": PerturbedTrajectory(amplitude=0.5),
                "noise_sigma": 0.1,
                "seed": np.random.default_rng(9),
            },
        ],
        ids=["clean", "noise", "antenna", "trajectory", "all"],
    )
    def test_memo_equals_cold(self, tiny_cfg, dtype, kwargs):
        scene = _two_targets(tiny_cfg)

        def run():
            kw = dict(kwargs)
            if isinstance(kw.get("seed"), np.random.Generator):
                kw["seed"] = np.random.default_rng(9)  # fresh stream per run
            return simulate_compressed(tiny_cfg, scene, dtype=dtype, **kw)

        # A resident plain-scene entry: a key that dropped the antenna
        # or trajectory would serve it to the variants below.
        simulate_compressed(tiny_cfg, scene)
        miss = run()
        hit = run()
        with memo_disabled():
            cold = run()
        assert cold.dtype == np.dtype(dtype)
        assert miss.dtype == hit.dtype == cold.dtype
        assert miss.tobytes() == cold.tobytes()
        assert hit.tobytes() == cold.tobytes()

    def test_noise_seeds_share_one_clean_build(self, tiny_cfg):
        scene = _two_targets(tiny_cfg)
        a = simulate_compressed(tiny_cfg, scene, noise_sigma=0.05, seed=1)
        hits = memo_stats()["hits"]
        b = simulate_compressed(tiny_cfg, scene, noise_sigma=0.05, seed=2)
        assert memo_stats()["hits"] == hits + 1
        assert a.tobytes() != b.tobytes()

    def test_cached_echo_is_frozen(self, tiny_cfg):
        scene = _two_targets(tiny_cfg)
        simulate_compressed(tiny_cfg, scene)
        clean = memoize(
            "sar/clean-echo",
            (tiny_cfg, scene, None, None),
            lambda: pytest.fail("the clean echo was not memoized"),
        )
        assert clean.dtype == np.complex128
        with pytest.raises(ValueError):
            clean[0, 0] = 0.0

    def test_mutating_a_result_leaves_the_next_call_intact(self, tiny_cfg):
        scene = _two_targets(tiny_cfg)
        first = simulate_compressed(tiny_cfg, scene, dtype=np.complex128)
        first[...] = 0.0
        again = simulate_compressed(tiny_cfg, scene, dtype=np.complex128)
        with memo_disabled():
            cold = simulate_compressed(tiny_cfg, scene, dtype=np.complex128)
        assert again.tobytes() == cold.tobytes()


class TestRdaTablesIdentity:
    """range_doppler_image through the ``sar/rda-tables`` memo."""

    @pytest.fixture
    def rda_data(self, tiny_cfg):
        return simulate_compressed(
            tiny_cfg, _two_targets(tiny_cfg), noise_sigma=0.05, seed=4
        )

    @pytest.mark.parametrize("rcmc", [True, False], ids=["rcmc", "no-rcmc"])
    def test_image_memo_equals_cold(self, tiny_cfg, rda_data, rcmc):
        miss = range_doppler_image(rda_data, tiny_cfg, rcmc=rcmc).data
        hit = range_doppler_image(rda_data, tiny_cfg, rcmc=rcmc).data
        with memo_disabled():
            cold = range_doppler_image(rda_data, tiny_cfg, rcmc=rcmc).data
        assert miss.dtype == hit.dtype == cold.dtype
        assert miss.tobytes() == cold.tobytes()
        assert hit.tobytes() == cold.tobytes()

    def test_tables_are_memoized_and_frozen(self, tiny_cfg):
        tables = rda_tables(tiny_cfg)
        assert rda_tables(tiny_cfg) is tables
        with pytest.raises(ValueError):
            tables.phase[0, 0] = 0.0
        with pytest.raises(ValueError):
            tables.rcmc.weights[0, 0, 0] = 0.0

    def test_mutating_an_image_leaves_the_next_call_intact(
        self, tiny_cfg, rda_data
    ):
        first = range_doppler_image(rda_data, tiny_cfg).data
        first[...] = 0.0
        again = range_doppler_image(rda_data, tiny_cfg).data
        with memo_disabled():
            cold = range_doppler_image(rda_data, tiny_cfg).data
        assert again.tobytes() == cold.tobytes()


class TestCubicStencilSplit:
    """cubic_stencil + apply_cubic_stencil == cubic_neville_rows."""

    def test_prebuilt_stencil_matches_one_shot(self):
        rng = np.random.default_rng(10)
        pos = rng.uniform(-1.0, 24.0, size=(5, 17))
        stencil = cubic_stencil(pos, 5, 24)
        for _ in range(2):  # one stencil, many sample arrays
            samples = rng.normal(size=(5, 24)) + 1j * rng.normal(size=(5, 24))
            got = apply_cubic_stencil(samples, stencil)
            assert got.tobytes() == cubic_neville_rows(samples, pos).tobytes()

    def test_shape_mismatch_rejected(self):
        stencil = cubic_stencil(np.zeros(3), 2, 8)
        with pytest.raises(ValueError):
            apply_cubic_stencil(np.zeros((3, 8)), stencil)
