"""Unit tests for the replay cache's declared program keys.

A kernel builder declares its program's replay key as a
``__replay_fp__`` attribute: a tag plus every value the generator
reads besides its source code.  The key is what makes the replay cache
*sound*: rebuilt kernels over the same inputs must key identically
(otherwise every run is a miss and replay buys nothing), every
declared input must split the key, and a program without a key --
the fault layer's per-core wrappers included -- must run cold.
"""

import pytest

from repro.exec.cache import stable_digest
from repro.machine.backends import get_machine
from repro.perf.memo import clear_memo
from repro.replay.machine import _declared_keys


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _key(program):
    return stable_digest(program.__replay_fp__)


def _plan(pulses=64):
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.sar.config import RadarConfig

    return plan_ffbp(RadarConfig.small(n_pulses=pulses, n_ranges=65))


def _work(n_candidates=4):
    from repro.kernels.opcounts import AutofocusWorkload

    return AutofocusWorkload(n_candidates=n_candidates)


def _declared(n):
    def program(ctx):
        yield from ()

    program.__replay_fp__ = ("test", n)
    return program


def _pipeline_keys(**kwargs):
    from repro.kernels.autofocus_mpmd import build_pipeline

    machine = get_machine("event:e16")
    work = kwargs.pop("work", _work())
    return stable_digest(
        _declared_keys(build_pipeline(machine, work, **kwargs).programs())
    )


class TestIdentity:
    def test_rebuilt_closures_fingerprint_identically(self):
        from repro.kernels.application import _merge_stage_kernel
        from repro.kernels.autofocus_seq import autofocus_seq_kernel
        from repro.kernels.ffbp_seq import ffbp_seq_kernel
        from repro.kernels.ffbp_spmd import ffbp_spmd_kernel
        from repro.kernels.gbp_ref import gbp_spmd_kernel

        plan, work = _plan(), _work()
        builders = (
            lambda: ffbp_spmd_kernel(plan, 16),
            lambda: ffbp_seq_kernel(plan),
            lambda: autofocus_seq_kernel(work),
            lambda: gbp_spmd_kernel(plan.cfg, 16),
            lambda: _merge_stage_kernel(plan.stages[0], 16),
        )
        for build in builders:
            a, b = build(), build()
            assert a is not b
            assert _key(a) == _key(b)
        # Rebuilt plans and pipelines key identically too.
        assert _key(ffbp_seq_kernel(plan)) == _key(ffbp_seq_kernel(_plan()))
        assert _pipeline_keys() == _pipeline_keys()

    def test_different_captured_values_differ(self):
        from repro.kernels.autofocus_seq import autofocus_seq_kernel
        from repro.kernels.ffbp_seq import ffbp_seq_kernel

        assert _key(ffbp_seq_kernel(_plan(64))) != _key(
            ffbp_seq_kernel(_plan(128))
        )
        assert _key(autofocus_seq_kernel(_work(4))) != _key(
            autofocus_seq_kernel(_work(8))
        )

    def test_builders_are_told_apart_by_their_tags(self):
        from repro.kernels.ffbp_seq import ffbp_seq_kernel
        from repro.kernels.ffbp_spmd import ffbp_spmd_kernel

        plan = _plan()
        assert _key(ffbp_seq_kernel(plan)) != _key(ffbp_spmd_kernel(plan, 1))


class TestDeclaredFingerprints:
    def test_ffbp_spmd_kernel_declares_its_key(self):
        from repro.kernels.ffbp_spmd import ffbp_spmd_kernel

        plan = _plan()
        k = ffbp_spmd_kernel(plan, 16)
        assert k.__replay_fp__ == ("ffbp-spmd", plan, 16, "nearest")
        # Plan, core count and interpolation each split the key.
        assert _key(k) != _key(ffbp_spmd_kernel(plan, 8))
        assert _key(k) != _key(
            ffbp_spmd_kernel(plan, 16, interpolation="bilinear")
        )
        assert _key(k) != _key(ffbp_spmd_kernel(_plan(128), 16))

    def test_autofocus_task_programs_key_on_workload_and_lane(self):
        from repro.kernels.autofocus_mpmd import (
            _bi_program,
            _corr_program,
            _ri_program,
        )

        work = _work()
        assert _key(_ri_program(work, 12)) == _key(_ri_program(work, 12))
        assert _key(_ri_program(work, 12)) != _key(_ri_program(work, 6))
        assert _key(_ri_program(work, 12)) != _key(_bi_program(work, 12))
        assert _key(_corr_program(work)) != _key(_corr_program(_work(8)))

    def test_pipeline_inputs_split_the_key(self):
        from repro.kernels.autofocus_mpmd import naive_placement

        base = _pipeline_keys()
        assert _pipeline_keys(work=_work(8)) != base
        assert _pipeline_keys(placement=naive_placement(_work())) != base
        assert _pipeline_keys(channel_capacity=3) != base
        assert _pipeline_keys(watchdog=50_000) != base

    def test_undeclared_task_program_gives_an_undeclared_wrapper(self):
        from repro.runtime.mapping import TaskGraph, linear_place
        from repro.runtime.mpmd import Pipeline, Task

        def body(ctx, ins, outs):
            yield from ()

        place = linear_place(TaskGraph(("t",)), 4, 4)
        pipe = Pipeline(get_machine("event:e16"), [Task("t", body)], place)
        (program,) = pipe.programs().values()
        assert not hasattr(program, "__replay_fp__")


class TestPrograms:
    def test_program_map_fingerprints_by_core(self):
        a, b = _declared(1), _declared(2)
        assert _declared_keys({0: a, 1: b}) == _declared_keys({1: b, 0: a})

    def test_shared_program_is_listed_once(self):
        p = _declared(1)
        keys, cores = _declared_keys({c: p for c in range(16)})
        assert keys == (("test", 1),)
        assert cores == tuple((c, 0) for c in range(16))

    def test_one_bad_program_poisons_the_map(self):
        def undeclared(ctx):
            yield from ()

        assert _declared_keys({0: _declared(1), 1: undeclared}) is None

    def test_core_assignment_is_part_of_the_key(self):
        p = _declared(1)
        assert _declared_keys({0: p}) != _declared_keys({1: p})


class TestUncacheable:
    def test_undeclared_program_runs_cold(self):
        from repro.machine.event import Delay

        def program(ctx):
            yield Delay(10)

        cold = get_machine("event:e16").run({0: program})
        for _ in range(2):
            m = get_machine("replay(event:e16)")
            res = m.run({0: program})
            assert m.stats()["uncacheable"] == 1
            assert m.stats()["captures"] == m.stats()["replays"] == 0
            assert res.cycles == cold.cycles

    def test_fault_plan_with_clauses_is_uncacheable(self):
        # The fault layer's per-core wrappers declare no key, so even
        # a fully declared pipeline runs cold under faulty(...).
        from repro.kernels.autofocus_mpmd import run_autofocus_mpmd

        spec = "faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=1):replay(event:e16)"
        for _ in range(2):
            m = get_machine(spec)
            run_autofocus_mpmd(m, _work())
            assert m.inner.stats()["uncacheable"] == 1
            assert m.inner.stats()["captures"] == 0
