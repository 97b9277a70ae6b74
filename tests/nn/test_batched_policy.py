"""Bitwise identity of :class:`StackedPolicy` against per-network forwards.

The stacked forward reproduces each lane's *serial operand memory layout*
before every GEMM (BLAS picks its kernel — and hence its floating-point
reduction order — from operand strides), which is what makes row ``j`` of
``forward`` byte-identical to ``networks[j].forward(obs[None])[0]`` rather
than merely numerically close.
"""

import numpy as np
import pytest

from repro.core.config import DroneScale
from repro.core.workloads import drone_agent_config
from repro.nn.batched import StackedPolicy
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig

#: ``DroneScale.tiny()``'s 3x8x16 input pools to even sizes only; the
#: default 3x18x32 input pools 9x16 to 4x8 and drops a row.
CONFIGS = {
    "tiny": lambda: drone_agent_config(DroneScale.tiny()),
    "default": ReinforceConfig,
}

#: Values bit flips leave in observations: NaN of both signs, +-inf, -0.0.
FAULT_VALUES = np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, -0.0, 0.0])


def _agents(count, seed=77, config="tiny"):
    config = CONFIGS[config]()
    streams = np.random.SeedSequence(seed).spawn(count)
    return [ReinforceAgent(config, rng=np.random.default_rng(s)) for s in streams]


def _observations(count, shape, seed=5, faults=False):
    """Normal draws; with ``faults``, even lanes also hold fault values."""
    rng = np.random.default_rng(seed)
    observations = rng.normal(size=(count, *shape))
    if faults:
        hit = rng.random(observations.shape) < 0.05
        hit[1::2] = False
        observations[hit] = rng.choice(FAULT_VALUES, size=int(hit.sum()))
    return observations


def _identity_case(lane_count, config, faults):
    """One case, its id ``[default-][faults-]<lanes>`` (the tiny normal cases keep ``[<lanes>]``)."""
    label = ([] if config == "tiny" else [config]) + (["faults"] if faults else [])
    return pytest.param(lane_count, config, faults, id="-".join(label + [str(lane_count)]))


class TestStackedForwardIdentity:
    @pytest.mark.parametrize(
        "lane_count, config, faults",
        [
            _identity_case(lanes, config, faults)
            for config in ("tiny", "default")
            for faults in (False, True)
            for lanes in (1, 2, 5)
        ],
    )
    def test_forward_matches_serial_bitwise(self, lane_count, config, faults):
        agents = _agents(lane_count, config=config)
        policy = StackedPolicy([agent.network for agent in agents])
        shape = agents[0].config.input_shape
        observations = _observations(lane_count, shape, faults=faults)
        with np.errstate(invalid="ignore"):
            stacked = policy.forward(observations)
            for lane, agent in enumerate(agents):
                serial = agent.network.forward(observations[lane][None])[0]
                assert stacked[lane].tobytes() == serial.tobytes()

    def test_lane_selection_routes_each_row_to_its_network(self):
        agents = _agents(3)
        policy = StackedPolicy([agent.network for agent in agents])
        shape = agents[0].config.input_shape
        observations = _observations(2, shape)
        lanes = np.array([2, 0])
        stacked = policy.forward(observations, lanes=lanes)
        for row, lane in enumerate(lanes):
            serial = agents[lane].network.forward(observations[row][None])[0]
            assert stacked[row].tobytes() == serial.tobytes()

    def test_refresh_picks_up_weight_mutations(self):
        agents = _agents(2)
        policy = StackedPolicy([agent.network for agent in agents])
        shape = agents[0].config.input_shape
        observations = _observations(2, shape)
        before = policy.forward(observations)
        # Mutate lane 1's weights in place (as a fault injection would).
        state = agents[1].network.state_dict()
        key = sorted(state)[0]
        state[key] = state[key] + 0.25
        agents[1].network.load_state_dict(state)
        stale = policy.forward(observations)
        assert stale[1].tobytes() == before[1].tobytes()  # stale until refresh
        policy.refresh()
        fresh = policy.forward(observations)
        serial = agents[1].network.forward(observations[1][None])[0]
        assert fresh[1].tobytes() == serial.tobytes()
        assert fresh[0].tobytes() == before[0].tobytes()

    def test_mismatched_topologies_rejected(self):
        from dataclasses import replace

        config = drone_agent_config(DroneScale.tiny())
        small = ReinforceAgent(config, rng=np.random.default_rng(1))
        big = ReinforceAgent(
            replace(config, fc_hidden=config.fc_hidden * 2), rng=np.random.default_rng(2)
        )
        with pytest.raises(ValueError):
            StackedPolicy([small.network, big.network])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            StackedPolicy([])
