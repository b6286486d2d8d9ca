"""Fast tests of the benchmark's own logic; no workload is run.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from hostspeed import (  # noqa: E402
    REFERENCE_S,
    SETUP_SAMPLES,
    Sample,
    SpeedSampler,
    gap_seconds,
    setup_work_seconds,
    work_seconds,
)
from stats import nearest_rank, quartile_spread, samples_beyond, tail_percentile  # noqa: E402
from tracing import Tracer, certify_flags, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Query,
    free_spec_family,
    input_digest,
    make_inputs,
    run_pass,
    verdict_digest,
)


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (5400, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert samples_beyond(n, p) >= 10
    assert sum(1 for i in range(n) if i > value) == samples_beyond(n, p)


def test_nearest_rank_and_spread():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(sorted(values), 50) == 3.0
    assert nearest_rank(sorted(values), 100) == 5.0
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([float(v) for v in range(1, 11)]) == pytest.approx(5.5 / 5.5)


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ["bench.q", 0.0, 10.0, -1, 0],
        ["schreier.stable_ball", 1.0, 4.0, 0, 0],
        ["schreier.raw_enumerate", 2.0, 3.0, 1, 0],
        ["ends.sphere_classes", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_last_enumeration_of_a_ball_is_its_certificate():
    spans = [
        ["schreier.stable_ball", 0.0, 9.0, -1, 0],
        ["schreier.raw_enumerate", 1.0, 2.0, 0, 0],
        ["schreier.raw_enumerate", 3.0, 4.0, 0, 0],
        ["schreier.raw_enumerate", 5.0, 6.0, 0, 0],
        ["schreier.enumerate_cosets", 10.0, 19.0, -1, 1],
        ["schreier.raw_enumerate", 11.0, 12.0, 4, 1],
        ["schreier.raw_enumerate", 13.0, 14.0, 4, 1],
    ]
    assert certify_flags(spans) == {1: False, 2: False, 3: True, 5: False, 6: True}


def test_nested_wrappers_account_for_the_whole_query():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda x: x + 1, "schreier.finalize")
    outer = tracer.wrap(lambda x: inner(x) * 2, "schreier.stable_ball")
    with tracer.query(0, "bench.q"):
        assert outer(1) == 4
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == root[2] - root[1]
    metrics = layer_metrics(tracer, wall_s=root[2] - root[1])
    assert metrics["trace.accounted_ratio"] == 1.0
    assert metrics["schreier.busy_s"] + metrics["bench.self_s"] == root[2] - root[1]


def test_installed_wrappers_pass_results_through_and_restore():
    import relends
    from relends import ends, schreier
    from relends.presentation import SubgroupSpec

    f2 = relends.parse_presentation("generators: a b\nrelators: none\n")
    original = schreier.stable_ball
    plain = relends.stable_ball(f2, SubgroupSpec(()), 2)
    tracer = Tracer()
    with tracer.installed():
        assert ends.stable_ball is relends.stable_ball is schreier.stable_ball
        assert schreier.stable_ball is not original
        with tracer.query(0, "bench.q"):
            traced = relends.stable_ball(f2, SubgroupSpec(()), 2)
    assert schreier.stable_ball is original and ends.stable_ball is original
    assert (traced.table, traced.dist, traced.slack) == (plain.table, plain.dist, plain.slack)
    assert [r["horizon"] for r in tracer.enum_runs] == [2, 3]
    rows = [
        len(schreier._raw_enumerate(f2, (), horizon, schreier.DEFAULT_NODE_BUDGET)[1])
        for horizon in (2, 3)
    ]
    assert [r["rows_allocated"] for r in tracer.enum_runs] == rows
    assert tracer.balls[0]["vertices"] == plain.n_vertices


# -- the query loop -----------------------------------------------------------


def test_wrong_answers_and_exceptions_count_as_failures():
    def boom(state):
        raise RuntimeError("budget")

    queries = [
        Query("right", lambda s: 1, 1),
        Query("wrong", lambda s: 2, 1),
        Query("raises", boom, 1),
        Query("after", lambda s: "ok", "ok"),
    ]
    outcomes = run_pass(queries)
    assert [o.ok for o in outcomes] == [True, False, False, True]
    assert outcomes[2].error is not None and "RuntimeError: budget" in outcomes[2].error
    assert verdict_digest(outcomes) == verdict_digest(run_pass(queries))


# -- host speed ---------------------------------------------------------------


def test_gaps_leave_calibrations_out_and_rescale_by_speed():
    # calibrations of 1 s between [0, 2], [5, 6] and [9, 10]; the first two
    # at reference speed, the last twice as slow
    r = REFERENCE_S
    window = [Sample(0.0, 2.0, r), Sample(5.0, 6.0, r), Sample(9.0, 10.0, 2 * r)]
    assert gap_seconds(window) == pytest.approx(3.0 + 3.0)
    # the second gap ran at the mean of its ends' speeds, 1.5 times slower
    assert work_seconds(window) == pytest.approx(3.0 + 3.0 / 1.5)


def test_timed_runs_between_two_samples():
    sampler = SpeedSampler()
    result, wall, work = sampler.timed(lambda: sum(range(100_000)))
    assert result == sum(range(100_000))
    assert len(sampler.samples) == 2
    assert 0 < wall and 0 < work


def test_work_clock_stands_still_in_samples_and_runs_at_their_speed():
    now = [0.0]
    sampler = SpeedSampler(clock=lambda: now[0])
    now[0] = 2.0
    assert sampler.work_clock() == pytest.approx(2.0)  # no sample yet: reference speed
    sampler._anchor = (2.0, 3.0, 2 * REFERENCE_S)  # a sample ran from 2 to 3, twice as slow
    now[0] = 3.0
    assert sampler.work_clock() == pytest.approx(2.0)
    now[0] = 5.0
    assert sampler.work_clock() == pytest.approx(3.0)


def test_setup_time_leaves_its_calibrations_out():
    sampler = SpeedSampler()
    r = REFERENCE_S
    sampler.samples = [Sample(t, t + 0.01, r) for t in range(SETUP_SAMPLES)]
    sampler.samples += [Sample(t, t + 0.01, 3 * r) for t in range(SETUP_SAMPLES)]
    busy = 1.0 - 0.01 * SETUP_SAMPLES
    assert setup_work_seconds(1.0, sampler) == pytest.approx(busy / 2)


# -- inputs -------------------------------------------------------------------


def test_free_spec_family_matches_the_acceptance_corpus_size():
    family = free_spec_family()
    assert len(family) == 29784
    assert len(set(family)) == len(family)


def test_a_seed_always_gives_the_same_input_digest():
    for workload in WORKLOADS:
        assert input_digest(make_inputs(workload, 7)) == input_digest(make_inputs(workload, 7))
    assert input_digest(make_inputs("free-oracle", 7)) != input_digest(
        make_inputs("free-oracle", 8)
    )
