"""Serial/parallel byte-identity for the newly decomposed artifacts.

PR 1 decomposed the heatmap and sweep artifacts; this suite covers the
remaining grid-shaped artifacts — fig3d (per parameter tensor), fig6a (per
drone count × fault location × BER), fig6b (per interval multiplier ×
scenario) and the data-type study (per BER × datatype × repeat) — and pins
the driver routing: ``CampaignRunner.run(id)`` and the serial plan must
produce byte-identical payloads.
"""

import json

import pytest

from repro.runtime.plans import CampaignContext, build_plan
from repro.runtime.runner import CampaignRunner

NEWLY_DECOMPOSED = ("fig3d", "fig6a", "fig6b", "datatypes")


def _payload(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def context(tiny_gridworld_scale, tiny_drone_scale, policy_cache) -> CampaignContext:
    return CampaignContext.create(tiny_gridworld_scale, tiny_drone_scale, policy_cache)


class TestPlanShapes:
    @pytest.mark.parametrize("experiment_id", NEWLY_DECOMPOSED)
    def test_true_multi_cell_plan(self, context, experiment_id):
        plan = build_plan(experiment_id, context)
        assert plan.cell_count > 1
        assert all(cell.experiment_id == experiment_id for cell in plan.cells)

    def test_fig3e_stays_single_cell(self, context):
        # The convergence loop trains until recovery: each round depends on
        # the previous evaluation, so it cannot decompose into cells.
        assert build_plan("fig3e", context).cell_count == 1

    def test_fig6a_keys_cover_counts_and_locations(self, context):
        plan = build_plan("fig6a", context)
        keys = {cell.key[:4] for cell in plan.cells}
        assert ("drones", 2, "location", "server") in keys
        assert ("drones", 4, "location", "agent") in keys

    def test_fig3d_per_parameter_cells(self, context, tiny_gridworld_policies):
        plan = build_plan("fig3d", context)
        assert plan.cell_count == len(tiny_gridworld_policies["consensus"])

    def test_fig3d_int8_falls_back_to_single_cell(self, tiny_gridworld_scale, policy_cache):
        from repro.core.experiments.gridworld_training import weight_distribution_plan

        # int8's affine scale is computed from the whole tensor; slicing
        # would change the encoding, so int8 keeps one whole-policy cell.
        plan = weight_distribution_plan(
            scale=tiny_gridworld_scale, datatype="int8", cache=policy_cache
        )
        assert plan.cell_count == 1


class TestSerialParallelByteIdentity:
    @pytest.mark.parametrize("experiment_id", NEWLY_DECOMPOSED)
    def test_parallel_matches_serial(self, context, experiment_id):
        plan = build_plan(experiment_id, context)
        serial = plan.run_serial()
        parallel = CampaignRunner(
            gridworld_scale=context.gridworld_scale,
            drone_scale=context.drone_scale,
            cache=context.cache,
            workers=2,
        ).run_plan(build_plan(experiment_id, context))
        assert _payload(serial) == _payload(parallel)


class TestFrameworkParity:
    def test_fig3d_matches_legacy_weight_distribution(self, context, tiny_gridworld_policies):
        from repro.core.experiments.gridworld_training import weight_distribution

        legacy = weight_distribution(
            scale=context.gridworld_scale,
            consensus=tiny_gridworld_policies["consensus"],
        )
        assert _payload(build_plan("fig3d", context).run_serial()) == _payload(legacy)

    def test_runner_routes_through_plans(self, context):
        runner = CampaignRunner(
            gridworld_scale=context.gridworld_scale,
            drone_scale=context.drone_scale,
            cache=context.cache,
        )
        assert _payload(runner.run("fig3d")) == _payload(
            build_plan("fig3d", context).run_serial()
        )
