"""The declarative scenario/sweep layer (repro.experiments.spec).

The load-bearing property is execution-order independence: a point's
seed (and therefore its simulated result) is a function of (base seed,
axis value) only, so reordering or subsetting a sweep — or running it
on a process pool that finishes points in any order — can never change
a row. Hypothesis drives that property plus the shared aggregation's
equivalence to the statistics module.
"""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.runner import SweepRunner
from repro.experiments.spec import (
    CAPACITY_DURATION,
    CAPACITY_WARMUP,
    PointResult,
    Scenario,
    Series,
    Sweep,
    aggregate_samples,
    mode_series,
    register_kind,
    run_scenario,
)


def make_sweep(values, seeds, seed_fn=None, agg="mean_std"):
    return Sweep(
        name="t",
        kind="open_loop",
        axis="cycles",
        axis_field="nf_cycles",
        values=values,
        modes=("rss", "sprayer"),
        seeds=seeds,
        seed_fn=seed_fn,
        metric="rate_mpps",
        unit="mpps",
        agg=agg,
    )


class TestScenario:
    def test_make_routes_unknown_kwargs_to_params(self):
        s = Scenario.make("open_loop", mode="rss", batch_size=4, queue_capacity=512)
        assert s.mode == "rss"
        assert s.extras == {"batch_size": 4, "queue_capacity": 512}

    def test_with_merges_params_and_fields(self):
        s = Scenario.make("open_loop", batch_size=4)
        t = s.with_(seed=7, batch_size=8, burst=2)
        assert (t.seed, t.burst, t.extras["batch_size"]) == (7, 2, 8)
        assert s.extras["batch_size"] == 4  # original untouched

    def test_scenarios_are_hashable_and_picklable(self):
        import pickle

        s = Scenario.make("tcp", nf_cycles=100, cc_name="reno")
        assert pickle.loads(pickle.dumps(s)) == s
        assert len({s, s.with_(seed=2)}) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            run_scenario(Scenario.make("no_such_kind"))


class TestSeedDerivation:
    @given(
        values=st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_seeds_stable_under_reordering_and_subsetting(self, values, seeds, data):
        """The (axis value, series, base seed) -> point seed mapping of a
        shuffled/subset sweep agrees with the full sweep's exactly."""
        seed_fn = data.draw(
            st.sampled_from([None, lambda s, v: s + v, lambda s, v: s * 1000 + v])
        )
        full = make_sweep(tuple(values), tuple(seeds), seed_fn=seed_fn)

        def seed_map(sweep):
            return {
                (sc.nf_cycles, sc.mode, base): sc.seed
                for sc, base in zip(
                    sweep.scenarios(),
                    [b for _ in sweep.values for _ in sweep.series for b in sweep.seeds],
                )
            }

        reference = seed_map(full)
        shuffled = data.draw(st.permutations(values))
        subset_end = data.draw(st.integers(1, len(shuffled)))
        subset = make_sweep(tuple(shuffled[:subset_end]), tuple(seeds), seed_fn=seed_fn)
        for key, seed in seed_map(subset).items():
            assert reference[key] == seed

    def test_points_enumerate_in_canonical_order(self):
        sweep = make_sweep((10, 20), (1, 2))
        got = [(s.nf_cycles, s.mode, s.seed) for s in sweep.scenarios()]
        assert got == [
            (10, "rss", 1), (10, "rss", 2), (10, "sprayer", 1), (10, "sprayer", 2),
            (20, "rss", 1), (20, "rss", 2), (20, "sprayer", 1), (20, "sprayer", 2),
        ]
        assert len(sweep) == 8


class TestAggregation:
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=10))
    def test_mean_std_matches_statistics_module(self, samples):
        row = {}
        aggregate_samples(row, "m", "mpps", samples)
        assert row["m_mpps"] == statistics.fmean(samples)
        if len(samples) > 1:
            assert row["m_std"] == statistics.stdev(samples)
        else:
            assert "m_std" not in row

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=10))
    def test_mean_min_max(self, samples):
        row = {}
        aggregate_samples(row, "m", "jain", samples, agg="mean_min_max")
        assert row["m_jain"] == statistics.fmean(samples)
        assert row["m_min"] == min(samples)
        assert row["m_max"] == max(samples)

    def test_empty_unit_uses_bare_label(self):
        row = {}
        aggregate_samples(row, "mpps_trivial_nf", "", [1.0])
        assert row == {"mpps_trivial_nf": 1.0}

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError):
            aggregate_samples({}, "m", "u", [1.0], agg="median")

    def test_rows_fold_in_canonical_order(self):
        sweep = make_sweep((10, 20), (1, 2))
        results = [
            PointResult(scenario=s, values={"rate_mpps": float(i)})
            for i, s in enumerate(sweep.scenarios())
        ]
        rows = sweep.rows(results)
        assert rows == [
            {"cycles": 10, "rss_mpps": 0.5, "rss_std": statistics.stdev([0.0, 1.0]),
             "sprayer_mpps": 2.5, "sprayer_std": statistics.stdev([2.0, 3.0])},
            {"cycles": 20, "rss_mpps": 4.5, "rss_std": statistics.stdev([4.0, 5.0]),
             "sprayer_mpps": 6.5, "sprayer_std": statistics.stdev([6.0, 7.0])},
        ]

    def test_rows_reject_wrong_result_count(self):
        sweep = make_sweep((10,), (1,))
        with pytest.raises(ValueError, match="expected 2 results"):
            sweep.rows([])


class TestSweepValidation:
    def test_modes_and_series_are_exclusive(self):
        with pytest.raises(ValueError):
            Sweep(name="t", kind="open_loop", axis="x", values=(1,),
                  modes=("rss",), series=(Series.make("s"),), metric="m")

    def test_needs_a_series(self):
        with pytest.raises(ValueError):
            Sweep(name="t", kind="open_loop", axis="x", values=(1,), metric="m")

    def test_mode_series_labels(self):
        series = mode_series(("rss", "sprayer"))
        assert [s.label for s in series] == ["rss", "sprayer"]
        assert dict(series[0].overrides) == {"mode": "rss"}


class TestRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_custom_kind_runs_through_runner(self):
        register_kind("echo_seed", lambda sc: ({"seed": sc.seed}, {}))
        try:
            scenarios = [Scenario.make("echo_seed", seed=i) for i in (3, 1, 2)]
            results = SweepRunner().run(scenarios)
            assert [r.values["seed"] for r in results] == [3, 1, 2]
        finally:
            from repro.experiments import spec

            del spec.KIND_RUNNERS["echo_seed"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_point_is_named_in_the_error(self, jobs):
        """A sweep point that raises reports which point it was, with
        the original error chained, on either backend."""
        bad = Scenario.make(
            "open_loop", label="figX", mode="rss", seed=7, batch_size=0
        )
        with pytest.raises(RuntimeError) as exc_info:
            SweepRunner(jobs=jobs).run([bad, bad.with_(seed=8)])
        message = str(exc_info.value)
        for part in ("label='figX'", "kind='open_loop'", "mode='rss'", "seed=7)"):
            assert part in message
        assert "ValueError: batch_size must be >= 1" in message
        if jobs == 1:
            assert isinstance(exc_info.value.__cause__, ValueError)

    def test_register_kind_rejects_duplicates(self):
        """Silently overwriting a kind would make every sweep using it
        quietly measure something else — refuse unless explicit."""
        with pytest.raises(ValueError, match="already registered"):
            register_kind("capacity", lambda sc: ({}, {}))
        with pytest.raises(ValueError, match="already registered"):
            register_kind("scr_head_to_head", lambda sc: ({}, {}))

        register_kind("dup_probe", lambda sc: ({"v": 1}, {}))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_kind("dup_probe", lambda sc: ({"v": 2}, {}))
            register_kind("dup_probe", lambda sc: ({"v": 3}, {}), replace=True)
            result = run_scenario(Scenario.make("dup_probe"))
            assert result.values == {"v": 3}
        finally:
            from repro.experiments import spec

            del spec.KIND_RUNNERS["dup_probe"]


class TestCapacityScenario:
    def test_measure_capacity_equals_capacity_scenario(self):
        """The harness wrapper and a capacity Scenario are one code path."""
        from repro.experiments.harness import measure_capacity

        direct = measure_capacity("sprayer", 0)
        scenario = Scenario.make("capacity", mode="sprayer", nf_cycles=0)
        assert run_scenario(scenario).values["pps"] == direct

    def test_capacity_window_is_pinned(self):
        from repro.experiments.harness import run_open_loop

        expected = run_open_loop(
            "sprayer", 0, duration=CAPACITY_DURATION, warmup=CAPACITY_WARMUP
        ).rate_mpps * 1e6
        got = run_scenario(Scenario.make("capacity", mode="sprayer")).values["pps"]
        assert got == expected
