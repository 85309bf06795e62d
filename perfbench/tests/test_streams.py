"""Seed determinism of the request streams and operation lists."""

from collections import Counter

from perfbench import serving, sim


def _fresh_noise_seeds(seed):
    passes = [r for i in range(30) for r in serving.saturation_pass("serve-fresh", seed, i)]
    plan = [req for _, req in serving.open_loop_plan("serve-fresh", seed, 20.0)]
    warm = serving.warmup_requests("serve-fresh", seed)
    return [r["noise_seed"] for r in passes + plan + warm]


def test_same_seed_gives_the_same_request_stream():
    for workload in ("serve-fresh", "serve-repeat"):
        assert serving.open_loop_plan(workload, 3, 10.0) == serving.open_loop_plan(
            workload, 3, 10.0
        )
        assert serving.saturation_pass(workload, 3, 2) == serving.saturation_pass(
            workload, 3, 2
        )
        assert serving.warmup_requests(workload, 3) == serving.warmup_requests(
            workload, 3
        )


def test_fresh_noise_seeds_never_repeat_within_or_across_seeds():
    a = _fresh_noise_seeds(1)
    b = _fresh_noise_seeds(2)
    assert len(set(a)) == len(a)
    assert not set(a) & set(b)


def test_fresh_blocks_hold_the_stated_mix():
    for seed, index in ((5, 0), (5, 3), (6, 0)):
        block = serving.fresh_block(seed, "saturation", index)
        grids = Counter((r["pulses"], r["ranges"]) for r in block)
        assert grids == {(128, 129): 30, (256, 257): 10}
        assert Counter(r["algorithm"] for r in block) == {"ffbp": 36, "rda": 4}
        cells = Counter(((r["pulses"], r["ranges"]), r["algorithm"]) for r in block)
        assert cells == serving.BLOCK_MIX
    assert serving.fresh_block(5, "saturation", 0) != serving.fresh_block(5, "saturation", 1)


def test_zipf_counts_sum_to_the_draws_and_follow_the_rank():
    for n in (40, 211, 500):
        counts = serving.zipf_counts(n, 12)
        assert sum(counts) == n
        assert counts == sorted(counts, reverse=True)
        weights = [1 / (r + 1) ** serving.ZIPF_S for r in range(12)]
        for c, w in zip(counts, weights):
            assert abs(c - n * w / sum(weights)) < 1


def test_repeat_passes_hold_one_mix_for_every_seed():
    def mix(seed, index):
        hot = serving.hot_set(seed)
        return Counter(hot.index(r) for r in serving.saturation_pass("serve-repeat", seed, index))

    assert mix(1, 0) == mix(1, 1) == mix(2, 0)
    assert sum(mix(1, 0).values()) == serving.REPEAT_PASS
    assert serving.saturation_pass("serve-repeat", 1, 0) != serving.saturation_pass(
        "serve-repeat", 1, 1
    )


def test_open_loop_rate_matches_its_constant():
    for rate in serving.OPEN_RATE_RPS.values():
        n = len(serving.arrivals(11, rate, 100.0))
        assert abs(n - 100 * rate) < 5 * (100 * rate) ** 0.5


def test_repeat_draws_stay_in_the_hot_set():
    hot = serving.hot_set(4)
    assert len(hot) == 12
    assert len({str(h) for h in hot}) == 12
    plan = serving.open_loop_plan("serve-repeat", 4, 10.0)
    assert all(req in hot for _, req in plan)
    # Zipf: the head of the rank order is the most requested payload.
    counts = Counter(hot.index(req) for _, req in plan)
    assert counts.most_common(1)[0][0] == 0


def test_hot_set_kinds_are_fixed_by_rank():
    kinds = lambda s: [(h["kind"], h.get("pulses"), h.get("algorithm")) for h in serving.hot_set(s)]  # noqa: E731
    assert kinds(1) == kinds(2)
    assert serving.hot_set(1) != serving.hot_set(2)


def test_same_seed_gives_the_same_operations():
    for workload in ("sim-cycle", "sim-sweep"):
        assert sim.operations(workload, 9, 4) == sim.operations(workload, 9, 4)
        # Every pass runs the same work, in its own order.
        assert Counter(sim.operations(workload, 9, 0)) == Counter(
            sim.operations(workload, 9, 1)
        )


def test_cycle_pass_runs_every_table1_row():
    ops = sim.operations("sim-cycle", 1, 0)
    assert sorted(row for _, row in ops) == sorted(sim.PINNED_CYCLES)


def test_sweep_draws_one_seeded_core_count_per_scale_plus_sixteen():
    configs = sim.sweep_configs(6)
    assert [p for p, _ in configs] == [p for p in sim.SWEEP_PULSES for _ in (0, 1)]
    for i, (_, cores) in enumerate(configs):
        assert cores in sim.SWEEP_CORES[i % 2]
    ops = Counter(sim.operations("sim-sweep", 6, 0))
    for pulses, cores in configs:
        assert ops[("replay", "ffbp", pulses, cores)] == sim.REPLAY_HITS
        assert ops[("analytic", "ffbp", pulses, cores)] == 1


def test_open_loop_always_supports_p95():
    from perfbench.common import supported_percentile

    for seed in range(20):
        n = len(serving.open_loop_plan("serve-fresh", seed, 1.0))
        assert n >= serving.MIN_OPEN_SAMPLES
        assert supported_percentile(n) >= 95
