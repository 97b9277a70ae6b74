"""Bitwise identity of :class:`StackedPolicy` against per-network forwards.

The stacked forward reproduces each lane's *serial operand memory layout*
before every GEMM (BLAS picks its kernel — and hence its floating-point
reduction order — from operand strides), which is what makes row ``j`` of
``forward`` byte-identical to ``networks[j].forward(obs[None])[0]`` rather
than merely numerically close.

Each stacked ``Conv2d`` and ``Linear`` runs as one ``np.matmul`` over the
lane stack.  :func:`_per_lane_loop_forward` keeps the forward it replaced,
one 2-D GEMM per lane, as a second byte reference.
"""

import numpy as np
import pytest

from repro.core.config import DroneScale
from repro.core.workloads import drone_agent_config
from repro.nn.activations import ReLU, Softmax
from repro.nn.batched import StackedPolicy
from repro.nn.conv import Conv2d, MaxPool2d, unfold_patches
from repro.nn.layers import Flatten, Linear
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


def _per_lane_loop_forward(policy, observations, lanes=None):
    """The stacked forward before one matmul per layer: a 2-D GEMM per lane."""
    x = np.asarray(observations, dtype=np.float64)
    gather = slice(None) if lanes is None else np.asarray(lanes, dtype=np.int64)
    for index, module in enumerate(policy.networks[0].modules):
        weight = policy._weight_stacks[index]
        bias = policy._bias_stacks[index]
        if weight is not None:
            weight = weight[gather]
        if bias is not None:
            bias = bias[gather]
        if isinstance(module, Conv2d):
            kernel = module.kernel_size
            columns = unfold_patches(x, kernel, kernel, module.stride, module.padding)
            count, channels, _, _, out_h, out_w = columns.shape
            out = np.empty((count, out_h * out_w, module.out_channels))
            for lane in range(count):
                cols = columns[lane : lane + 1].transpose(0, 4, 5, 1, 2, 3).reshape(
                    out_h * out_w, channels * kernel * kernel
                )
                product = cols @ weight[lane].T
                if bias is not None:
                    product = product + bias[lane]
                out[lane] = product
            x = out.reshape(count, out_h, out_w, module.out_channels).transpose(0, 3, 1, 2)
        elif isinstance(module, Linear):
            out = np.empty((x.shape[0], module.out_features))
            for row in range(x.shape[0]):
                out[row] = (x[row : row + 1] @ weight[row])[0]
            if bias is not None:
                out = out + bias
            x = out
        elif isinstance(module, MaxPool2d):
            x = StackedPolicy._pool_forward(module, x)
        elif isinstance(module, ReLU):
            x = x * (x > 0)
        elif isinstance(module, Flatten):
            x = x.reshape(x.shape[0], -1)
        elif isinstance(module, Softmax):
            shifted = x - x.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            x = exps / exps.sum(axis=1, keepdims=True)
    return x


def _assert_rows_exact(policy, agents, observations, lanes=None):
    """Stacked rows carry the bytes of each lane's serial forward and of the per-lane loop."""
    with np.errstate(invalid="ignore"):
        stacked = policy.forward(observations, lanes=lanes)
        reference = _per_lane_loop_forward(policy, observations, lanes=lanes)
        assert stacked.tobytes() == reference.tobytes()
        routes = range(len(agents)) if lanes is None else lanes
        for row, lane in enumerate(routes):
            serial = agents[lane].network.forward(observations[row][None])[0]
            assert stacked[row].tobytes() == serial.tobytes()


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
            for lanes in (1, 2, 5, 36)
        ],
    )
    def test_forward_matches_serial_bitwise(self, lane_count, config, faults):
        agents = _agents(lane_count, config=config)
        policy = StackedPolicy([agent.network for agent in agents])
        shape = agents[0].config.input_shape
        observations = _observations(lane_count, shape, faults=faults)
        _assert_rows_exact(policy, agents, observations)

    def test_lane_selection_routes_each_row_to_its_network(self):
        agents = _agents(3)
        policy = StackedPolicy([agent.network for agent in agents])
        shape = agents[0].config.input_shape
        observations = _observations(2, shape)
        _assert_rows_exact(policy, agents, observations, lanes=np.array([2, 0]))

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("faults", [False, True], ids=["normal", "faults"])
    @pytest.mark.parametrize("gather", ["permuted", "repeated"])
    def test_lane_gathers_match_serial_bitwise(self, config, faults, gather):
        agents = _agents(5, config=config)
        policy = StackedPolicy([agent.network for agent in agents])
        rng = np.random.default_rng(11)
        if gather == "permuted":
            lanes = rng.permutation(len(agents))
        else:
            lanes = rng.integers(0, len(agents), size=12)
            lanes[:3] = lanes[0]
        observations = _observations(len(lanes), agents[0].config.input_shape, faults=faults)
        _assert_rows_exact(policy, agents, observations, lanes=lanes)

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
