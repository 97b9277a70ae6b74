"""The vectorize registry and the runner's group routing.

Covers the three mode contracts (``auto`` groups registered functions and
runs the others cell by cell, ``on`` demands a registered group runner,
``off`` never groups) and the payload byte-identity of every mode with
campaign cells trained by the serial loop (``serial_oracle.serial_train``),
which the CI ``vectorize-identity`` job pins end to end.
"""

import json

import pytest

from repro.federated import FRLSystem
from repro.runtime.plans import CampaignContext, build_plan
from repro.runtime.runner import CampaignError, CampaignRunner, _run_cell_batch
from repro.runtime.vectorize import (
    GROUP_CELL_CAP,
    VECTORIZE_MODES,
    group_runner_for,
    has_group_runner,
    register_group_runner,
    registered_functions,
    validate_vectorize_mode,
)

from serial_oracle import serial_train


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def context(tiny_gridworld_scale, tiny_drone_scale, policy_cache) -> CampaignContext:
    return CampaignContext.create(tiny_gridworld_scale, tiny_drone_scale, policy_cache)


class TestRegistry:
    def test_validate_modes(self):
        for mode in VECTORIZE_MODES:
            assert validate_vectorize_mode(mode) == mode
        with pytest.raises(ValueError, match="vectorize"):
            validate_vectorize_mode("sometimes")

    def test_register_and_lookup_by_function_object(self):
        def cell_fn(**kwargs):
            return kwargs

        def group_fn(kwargs_list):
            return [cell_fn(**kwargs) for kwargs in kwargs_list]

        assert not has_group_runner(cell_fn)
        register_group_runner(cell_fn, group_fn)
        try:
            assert has_group_runner(cell_fn)
            assert group_runner_for(cell_fn) is group_fn
            assert cell_fn in registered_functions()
        finally:
            register_group_runner(cell_fn, None)
        assert not has_group_runner(cell_fn)

    def test_drone_training_cells_are_registered(self):
        # Importing the experiment module registers its group runners — the
        # same import path workers take when they unpickle a cell's fn.
        from repro.core.experiments import drone_training

        assert has_group_runner(drone_training.drone_training_cell)


class TestModeRouting:
    def test_on_requires_a_registered_runner(self, context):
        plan = build_plan("fig3d", context)  # gridworld cells: no group runner
        with pytest.raises(CampaignError, match="vectorize"):
            _run_cell_batch(list(plan.cells), vectorize="on")

    def test_auto_falls_back_serially_for_unregistered(self, context):
        plan = build_plan("fig3d", context)
        cells = list(plan.cells)
        assert _run_cell_batch(cells, vectorize="auto") == _run_cell_batch(
            cells, vectorize="off"
        )

    def test_group_runner_output_count_is_checked(self, context):
        plan = build_plan("fig6a", context)
        cells = list(plan.cells)[:2]
        fn = cells[0].fn
        original = group_runner_for(fn)
        register_group_runner(fn, lambda kwargs_list: [])
        try:
            with pytest.raises(CampaignError, match="outputs"):
                _run_cell_batch(cells, vectorize="on")
        finally:
            register_group_runner(fn, original)

    def test_serial_groups_fuse_up_to_the_cap(self, context):
        runner = CampaignRunner(
            gridworld_scale=context.gridworld_scale,
            drone_scale=context.drone_scale,
            cache=context.cache,
            vectorize="auto",
        )
        plan = build_plan("fig6a", context)
        cells = list(plan.cells)
        groups = runner._serial_groups(cells, list(range(len(cells))))
        assert [index for group in groups for index in group] == list(range(len(cells)))
        assert all(len(group) <= GROUP_CELL_CAP for group in groups)
        assert any(len(group) > 1 for group in groups)

    def test_off_never_groups(self, context):
        runner = CampaignRunner(
            gridworld_scale=context.gridworld_scale,
            drone_scale=context.drone_scale,
            cache=context.cache,
            vectorize="off",
        )
        plan = build_plan("fig6a", context)
        cells = list(plan.cells)
        groups = runner._serial_groups(cells, list(range(len(cells))))
        assert all(len(group) == 1 for group in groups)


class TestPayloadIdentity:
    @pytest.mark.parametrize("experiment_id", ["fig6a", "fig6b"])
    def test_vectorized_matches_serial_bitwise(self, context, experiment_id, monkeypatch):
        def run(vectorize, workers=1):
            return CampaignRunner(
                gridworld_scale=context.gridworld_scale,
                drone_scale=context.drone_scale,
                cache=context.cache,
                workers=workers,
                vectorize=vectorize,
            ).run_plan(build_plan(experiment_id, context))

        # The reference trains every cell's agents one episode at a time.
        with monkeypatch.context() as patch:
            patch.setattr(FRLSystem, "train", serial_train)
            serial = _payload(run("off"))
        assert _payload(run("off")) == serial
        assert _payload(run("on")) == serial
        assert _payload(run("auto", workers=2)) == serial
