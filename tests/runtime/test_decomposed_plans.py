"""Plan shapes and serial/parallel byte-identity of the later decompositions.

The heatmap and sweep artifacts were decomposed first; this suite covers the
other grid-shaped artifacts — fig3d (per parameter tensor), fig3e (per fault
location × BER recovery chain), fig6a (per drone count × fault location ×
BER), fig6b (per interval multiplier × scenario) and the data-type study (per
BER × datatype × repeat) — and pins the driver routing:
``CampaignRunner.run(id)`` and the serial plan must produce byte-identical
payloads.
"""

import json

import numpy as np
import pytest

from repro.quant.datatypes import resolve_datatype
from repro.runtime.plans import CampaignContext, build_plan
from repro.runtime.runner import CampaignRunner
from repro.utils.bitops import count_ones

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

    def test_fig3e_one_cell_per_chain(self, context):
        # Each (location, BER) recovery chain trains until recovery and is
        # sequential inside, but chains share nothing: one cell each, agent
        # chains first, then server chains, in BER order.
        plan = build_plan("fig3e", context)
        assert [cell.key for cell in plan.cells] == [
            ("location", location, "ber", index)
            for location in ("agent", "server")
            for index in range(3)
        ]

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


def _whole_policy_rows(consensus: dict, datatype: str) -> list:
    """Fig. 3d's table rows from one encoding of the whole flattened policy."""
    flat = np.concatenate(
        [np.asarray(value, dtype=np.float64).reshape(-1) for value in consensus.values()]
    )
    resolved = resolve_datatype(datatype)
    codes, _context = resolved.encode(flat)
    total_bits = flat.size * resolved.bit_width
    ones = count_ones(codes, resolved.bit_width) / total_bits
    return [
        ["min weight", float(flat.min())],
        ["max weight", float(flat.max())],
        ["0 bits (%)", (1.0 - ones) * 100.0],
        ["1 bits (%)", ones * 100.0],
        ["total bits", float(total_bits)],
    ]


class TestFrameworkParity:
    def test_fig3d_matches_whole_policy_breakdown(self, context, tiny_gridworld_policies):
        """Per-parameter cells sum exactly to one whole-policy encoding."""
        result = build_plan("fig3d", context).run_serial()
        expected = _whole_policy_rows(
            tiny_gridworld_policies["consensus"], context.gridworld_scale.datatype
        )
        assert result.rows == expected

    def test_fig3e_chains_are_independent(self, context):
        """The recovery chains, run in reverse order and sent through a JSON
        round trip, merge to the in-order payload."""
        plan = build_plan("fig3e", context)
        in_order = _payload(plan.run_serial())
        outputs = {}
        for index in reversed(range(plan.cell_count)):
            outputs[index] = json.loads(json.dumps(plan.cells[index].run()))
        merged = plan.merge([outputs[index] for index in range(plan.cell_count)])
        assert _payload(merged) == in_order

    def test_runner_routes_through_plans(self, context):
        runner = CampaignRunner(
            gridworld_scale=context.gridworld_scale,
            drone_scale=context.drone_scale,
            cache=context.cache,
        )
        assert _payload(runner.run("fig3d")) == _payload(
            build_plan("fig3d", context).run_serial()
        )
