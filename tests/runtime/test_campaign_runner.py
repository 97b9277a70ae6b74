"""Tests for the parallel campaign runner.

The central guarantee under test: executing a campaign plan on a process pool
produces *byte-identical* merged results to the serial in-process run, because
every cell derives its randomness from seeds keyed by its campaign
coordinates.  Worker crashes must surface as typed errors naming the cell.
"""

import json

import numpy as np
import pytest

from repro.core.config import DroneScale, GridWorldScale
from repro.core.experiments.gridworld_inference import gridworld_inference_plan
from repro.core.experiments.gridworld_training import gridworld_training_plan
from repro.runtime.cells import CampaignPlan, CellTask, derive_cell_seeds
from repro.runtime.plans import CampaignContext, build_plan, plannable_experiment_ids
from repro.runtime.runner import CampaignRunner, CellExecutionError


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def tiny_scale() -> GridWorldScale:
    return GridWorldScale.tiny()


class TestSerialParallelDeterminism:
    def test_fig3a_parallel_matches_serial(self, tiny_scale, policy_cache):
        serial = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache, workers=1)
        parallel = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache, workers=2)
        assert _payload(serial.run("fig3a")) == _payload(parallel.run("fig3a"))

    def test_fig4_parallel_matches_serial(self, tiny_scale, policy_cache):
        serial = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache, workers=1)
        parallel = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache, workers=2)
        assert _payload(serial.run("fig4")) == _payload(parallel.run("fig4"))


class TestDriver:
    """CampaignRunner as the one library driver of paper artifacts."""

    @pytest.fixture()
    def runner(self, policy_cache):
        return CampaignRunner(
            gridworld_scale=GridWorldScale.tiny(), drone_scale=DroneScale.tiny(), cache=policy_cache
        )

    def test_experiment_ids_cover_paper_artifacts(self, runner):
        assert runner.experiment_ids == plannable_experiment_ids() == sorted(
            ["fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "table1", "fig4", "fig5a",
             "fig5b", "fig5c", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
             "fig9", "datatypes"]
        )

    def test_unknown_experiment(self, runner):
        with pytest.raises(KeyError):
            runner.run("fig99")

    def test_run_fig9_and_report(self, runner):
        result = runner.run("fig9")
        assert "fig9" in runner.results
        report = runner.report()
        assert "fig9" in report and "DJI Spark" in report
        assert hasattr(result, "rows")

    def test_run_fig3d_uses_cache(self, runner):
        result = runner.run("fig3d")
        labels = [row[0] for row in result.rows]
        assert "0 bits (%)" in labels

    def test_run_all_subset(self, runner):
        results = runner.run_all(["fig9", "fig3d"])
        assert set(results) == {"fig9", "fig3d"}


class TestPlans:
    def test_every_registered_artifact_is_plannable(self, tiny_scale, policy_cache):
        runner = CampaignRunner(
            gridworld_scale=tiny_scale, drone_scale=DroneScale.tiny(), cache=policy_cache
        )
        # Every id the driver offers builds a plan of at least two cells, so
        # every artifact can spread over a pool, shards or the orchestrator.
        for experiment_id in runner.experiment_ids:
            plan = runner.plan(experiment_id)
            assert plan.cell_count >= 2, experiment_id
            assert all(cell.experiment_id == experiment_id for cell in plan.cells)

    def test_heatmap_plan_shape(self, tiny_scale):
        plan = gridworld_training_plan(
            "agent", scale=tiny_scale, ber_values=(0.0, 0.01, 0.02), episode_fractions=(0.5, 0.9)
        )
        assert plan.cell_count == tiny_scale.repeats * 3 * 2
        assert all(cell.experiment_id == "fig3a" for cell in plan.cells)

    def test_inference_plan_uses_policy_refs(self, tiny_scale, policy_cache):
        from repro.runtime.residency import PolicyRef

        plan = gridworld_inference_plan(scale=tiny_scale, cache=policy_cache, repeats=2)
        # Policies are referenced by (cache_dir, key): cells never carry the
        # state dict itself, and no cell retrains a baseline.
        for cell in plan.cells:
            assert isinstance(cell.kwargs["multi_policy"], PolicyRef)
            assert isinstance(cell.kwargs["single_policy"], PolicyRef)
            assert cell.kwargs["multi_policy"].cache_dir == str(policy_cache.cache_dir)

    def test_unknown_experiment_rejected(self, tiny_scale, policy_cache):
        runner = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache)
        with pytest.raises(KeyError):
            runner.run("fig99")


def _explode(message: str) -> float:
    raise RuntimeError(message)


def _identity(value: float) -> float:
    return value


def _die(value: float) -> float:
    import os

    os._exit(1)  # simulate a segfault / OOM kill: no exception, no cleanup


def _value_plan(count: int, merge=sum) -> CampaignPlan:
    cells = [
        CellTask(
            experiment_id="values",
            key=("cell", index),
            fn=_identity,
            kwargs={"value": float(index)},
        )
        for index in range(count)
    ]
    return CampaignPlan(experiment_id="values", cells=cells, merge=merge)


def _crash_plan(fail_index: int) -> CampaignPlan:
    cells = [
        CellTask(
            experiment_id="boom",
            key=("cell", index),
            fn=_explode if index == fail_index else _identity,
            kwargs={"message": "injected failure"} if index == fail_index else {"value": 1.0},
        )
        for index in range(4)
    ]
    return CampaignPlan(experiment_id="boom", cells=cells, merge=sum)


class TestWorkerCrashSurfacing:
    def test_cell_exception_surfaces_with_cell_identity(self):
        runner = CampaignRunner(workers=2)
        with pytest.raises(CellExecutionError) as excinfo:
            runner.run_plan(_crash_plan(fail_index=2))
        assert "boom" in str(excinfo.value)
        assert "injected failure" in str(excinfo.value)
        assert excinfo.value.cell.key == ("cell", 2)

    def test_cell_exception_surfaces_from_batched_submission(self):
        runner = CampaignRunner(workers=2, batch_size=3)
        with pytest.raises(CellExecutionError) as excinfo:
            runner.run_plan(_crash_plan(fail_index=2))
        assert excinfo.value.cell.key == ("cell", 2)

    def test_serial_path_raises_original_error(self):
        runner = CampaignRunner(workers=1)
        with pytest.raises(RuntimeError, match="injected failure"):
            runner.run_plan(_crash_plan(fail_index=0))

    def test_killed_worker_surfaces_cell_identity(self):
        cells = [
            CellTask(
                experiment_id="killed",
                key=("cell", index),
                fn=_die if index == 1 else _identity,
                kwargs={"value": float(index)},
            )
            for index in range(3)
        ]
        plan = CampaignPlan(experiment_id="killed", cells=cells, merge=sum)
        runner = CampaignRunner(workers=2)
        with pytest.raises(CellExecutionError, match="worker process died"):
            runner.run_plan(plan)

    def test_cell_execution_error_survives_pickling(self):
        import pickle

        error = CellExecutionError(_value_plan(1).cells[0], "RuntimeError: nope")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, CellExecutionError)
        assert clone.cell.key == ("cell", 0)
        assert "nope" in str(clone)


class TestCellBatching:
    def test_batched_matches_serial(self):
        plan_outputs = _value_plan(7, merge=list).run_serial()
        runner = CampaignRunner(workers=2, batch_size=3)
        assert runner.run_plan(_value_plan(7, merge=list)) == plan_outputs

    def test_batch_size_larger_than_plan(self):
        runner = CampaignRunner(workers=2, batch_size=100)
        assert runner.run_plan(_value_plan(4)) == 6.0

    def test_fig3a_batched_parallel_matches_serial(self, tiny_scale, policy_cache):
        serial = CampaignRunner(gridworld_scale=tiny_scale, cache=policy_cache, workers=1)
        batched = CampaignRunner(
            gridworld_scale=tiny_scale, cache=policy_cache, workers=2, batch_size=4
        )
        assert _payload(serial.run("fig3a")) == _payload(batched.run("fig3a"))

    def test_batch_size_floor(self):
        assert CampaignRunner(batch_size=0).batch_size == 1


class TestDefaultWorkerCount:
    def test_prefers_process_cpu_count(self, monkeypatch):
        from repro.runtime import runner as runner_module

        monkeypatch.setattr(runner_module.os, "process_cpu_count", lambda: 3, raising=False)
        assert runner_module.default_worker_count() == 3

    def test_falls_back_to_affinity_mask(self, monkeypatch):
        from repro.runtime import runner as runner_module

        # Simulate a cgroup-limited container: 2 schedulable CPUs on a
        # 64-CPU machine.  os.cpu_count() must not win.
        monkeypatch.delattr(runner_module.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(runner_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 64)
        assert runner_module.default_worker_count() == 2

    def test_last_resort_cpu_count_capped(self, monkeypatch):
        from repro.runtime import runner as runner_module

        monkeypatch.delattr(runner_module.os, "process_cpu_count", raising=False)
        monkeypatch.delattr(runner_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 64)
        assert runner_module.default_worker_count() == 8

    def test_never_below_one(self, monkeypatch):
        from repro.runtime import runner as runner_module

        monkeypatch.delattr(runner_module.os, "process_cpu_count", raising=False)
        monkeypatch.delattr(runner_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: None)
        assert runner_module.default_worker_count() == 1


class TestSeedDerivation:
    def test_derive_cell_seeds_deterministic(self):
        assert derive_cell_seeds(7, 5) == derive_cell_seeds(7, 5)

    def test_derive_cell_seeds_prefix_stable(self):
        # Adding replicates must never perturb existing ones.
        assert derive_cell_seeds(7, 8)[:5] == derive_cell_seeds(7, 5)

    def test_derive_cell_seeds_distinct(self):
        seeds = derive_cell_seeds(0, 16)
        assert len(set(seeds)) == len(seeds)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_cell_seeds(0, -1)


class TestFig9Plan:
    def test_fig9_one_cell_per_platform(self, tiny_scale, tiny_drone_scale, policy_cache):
        context = CampaignContext.create(tiny_scale, tiny_drone_scale, policy_cache)
        plan = build_plan("fig9", context)
        assert [cell.key for cell in plan.cells] == [
            ("platform", "AirSim drone"),
            ("platform", "DJI Spark"),
        ]
        outputs = [cell.run() for cell in plan.cells]
        # JSON-native rows, concatenated in platform order by the merge.
        assert json.loads(json.dumps(outputs)) == outputs
        assert plan.merge(outputs).rows == outputs[0] + outputs[1]

    def test_fig9_runs_in_worker(self, tiny_scale, tiny_drone_scale, policy_cache):
        runner = CampaignRunner(
            gridworld_scale=tiny_scale,
            drone_scale=tiny_drone_scale,
            cache=policy_cache,
            workers=2,
        )
        result = runner.run("fig9")
        assert hasattr(result, "rows")
        assert "fig9" in runner.results
        assert "fig9" in runner.report()


class TestMergeAccumulation:
    def test_accumulate_matches_nested_loops(self):
        from repro.runtime.cells import accumulate_heatmap, grid_merge_order

        rng = np.random.default_rng(3)
        repeats, rows, columns = 3, 4, 2
        outputs = rng.random(repeats * rows * columns).tolist()
        merged = accumulate_heatmap(outputs, repeats, rows, columns)
        expected = np.zeros((rows, columns))
        cursor = 0
        for _repeat in range(repeats):
            for row in range(rows):
                for column in range(columns):
                    expected[row, column] += outputs[cursor]
                    cursor += 1
        np.testing.assert_array_equal(merged, expected)
        assert len(grid_merge_order(repeats, rows, columns)) == len(outputs)

    def test_accumulate_rejects_wrong_cardinality(self):
        from repro.runtime.cells import accumulate_heatmap

        with pytest.raises(ValueError):
            accumulate_heatmap([1.0, 2.0], repeats=1, rows=2, columns=2)
