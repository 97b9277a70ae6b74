"""One greedy flight per (policy, world) on the lane engine, against the serial flight.

Drone evaluation flies each (policy, world) pair once, as a lane of
``rl/rollout.evaluate_episodes_lockstep``: one ``np.argmax`` over a stacked
forward picks every live lane's action and ``DroneNavVecEnv`` steps the
lanes.  The reference is the serial flight it replaced,
``greedy_episode(partial(agent.select_action, explore=False), env, 0.0, None)``,
which runs ``Sequential.forward`` and ``DroneNavEnv.step``.  Flight distance
bytes, total reward, steps and outcome must match for clean, transient- and
stuck-at-corrupted policies, and every evaluation entry point must return
the mean of the serial flights in pair order: ``FRLSystem.
average_flight_distance``, ``average_flight_distance_group_lockstep`` and
``flight_distance_over_envs``.  A greedy flight draws nothing and starts
from a fixed pose, which is why one flight is the whole measurement: a
second flight repeats it byte for byte and no agent's stream moves.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.experiments.inference_utils import (
    drone_agent_with_state,
    flight_distance_over_envs,
)
from repro.core.workloads import (
    build_drone_frl_system,
    build_drone_single_system,
    drone_environments,
)
from repro.faults import FaultInjector
from repro.faults.hooks import attach_activation_faults
from repro.federated.lockstep import average_flight_distance_group_lockstep
from repro.nn.batched import StackedPolicy
from repro.rl.lockstep import build_vec_env
from repro.rl.rollout import evaluate_episodes_lockstep, greedy_episode
from repro.utils.rng import RngFactory

DATATYPES = ("Q(1,7,8)", "Q(1,10,5)")
MODELS = ("transient", "stuck-at-0", "stuck-at-1")
BERS = (1e-3, 1e-2, 1e-1)


def serial_flight(agent, env):
    """The serial greedy flight the lane engine replaced."""
    return greedy_episode(partial(agent.select_action, explore=False), env, 0.0, None)


def summary(stats):
    """What a flight reports: distance and reward bytes, steps, outcome."""
    return (
        np.float64(stats.flight_distance).tobytes(),
        np.float64(stats.total_reward).tobytes(),
        stats.steps,
        stats.info["outcome"],
        stats.success,
        stats.crashed,
    )


def mean_bytes(values):
    return np.float64(np.mean(values)).tobytes()


def streams(agents):
    return [agent.rng.bit_generator.state for agent in agents]


@pytest.fixture(scope="module")
def scale(tiny_drone_scale):
    return tiny_drone_scale


@pytest.fixture(scope="module")
def policies(tiny_drone_policy):
    """The clean policy, then every (datatype, model, BER) corruption of it."""
    clean = tiny_drone_policy["policy"]
    states = [clean]
    for datatype in DATATYPES:
        for model in MODELS:
            for index, ber in enumerate(BERS):
                stream = RngFactory(3).stream("flight-oracle", datatype, model, index)
                injector = FaultInjector(datatype=datatype, model=model, rng=stream)
                states.append(injector.corrupt_state_dict(clean, ber))
    return states


@pytest.fixture(scope="module")
def agents(scale, policies):
    return [
        drone_agent_with_state(scale, state, rng=index) for index, state in enumerate(policies)
    ]


def fly_lanes(pairs):
    return evaluate_episodes_lockstep(
        build_vec_env([env for _, env in pairs]),
        StackedPolicy([agent.network for agent, _ in pairs]),
    )


class TestLanesMatchSerialFlights:
    def test_every_policy_on_every_world(self, scale, agents):
        envs = drone_environments(scale)
        pairs = [(agent, env) for agent in agents for env in envs]
        before = streams(agents)
        per_lane = fly_lanes(pairs)
        assert streams(agents) == before
        assert [len(lane) for lane in per_lane] == [1] * len(pairs)
        for (agent, env), lane in zip(pairs, per_lane):
            assert summary(lane[0]) == summary(serial_flight(agent, env))
        # The corruptions change what the policies do.
        assert len({lane[0].steps for lane in per_lane}) > 1
        assert len({lane[0].info["outcome"] for lane in per_lane}) > 1

    def test_one_lane(self, scale, agents):
        env = drone_environments(scale)[0]
        (lane,) = fly_lanes([(agents[-1], env)])
        assert summary(lane[0]) == summary(serial_flight(agents[-1], env))

    def test_argmax_pick_matches_the_per_lane_pick(self, agents):
        # The engine picks every lane at once; the serial branch picks one
        # row: first maximum on ties, first NaN when a row holds one.
        probabilities = np.array(
            [
                [0.1, 0.4, 0.4, 0.1],
                [0.0, -0.0, 0.0, -0.0],
                [0.2, np.nan, 0.7, np.nan],
                [np.inf, 0.1, np.inf, 0.2],
                [-np.nan, 0.3, np.nan, 0.4],
                [1e-310, 5e-324, 1e-310, 0.0],
            ]
        )
        picks = [agents[0].greedy_action_from(row) for row in probabilities]
        assert np.argmax(probabilities, axis=1).tolist() == picks == [1, 0, 1, 0, 0, 0]

    def test_lane_count_must_match_the_policy(self, scale, agents):
        envs = drone_environments(scale)
        with pytest.raises(ValueError, match="stacked networks"):
            evaluate_episodes_lockstep(
                build_vec_env(envs), StackedPolicy([agents[0].network])
            )

    def test_activation_hooks_are_refused(self, scale, policies):
        # A hook wraps the serial forward, which the stacked forward never
        # calls, so evaluating a hooked network raises instead of silently
        # dropping its faults.
        agent = drone_agent_with_state(scale, policies[0], rng=0)
        injector = FaultInjector(datatype=scale.datatype, rng=1)
        attach_activation_faults(agent.network, injector, 1e-2)
        with pytest.raises(TypeError, match="unsupported layer"):
            flight_distance_over_envs(agent, drone_environments(scale))


class TestEvaluationEntryPoints:
    @pytest.mark.parametrize("drones", [2, 4])
    def test_frl_system(self, scale, policies, drones):
        system = build_drone_frl_system(scale.with_drones(drones), initial_state=policies[0])
        for index in range(drones):
            system.corrupt_agent(index, policies[1 + 4 * index])
        pairs = system.evaluation_pairs()
        expected = [serial_flight(agent, env).flight_distance for agent, env in pairs]
        assert len(set(expected)) > 1
        before = streams([agent for agent, _ in pairs])
        assert np.float64(system.average_flight_distance()).tobytes() == mean_bytes(expected)
        assert streams([agent for agent, _ in pairs]) == before

    @pytest.mark.parametrize("worlds", [1, 3])
    def test_single_agent_system(self, scale, policies, worlds):
        system = build_drone_single_system(
            scale.with_drones(3), initial_state=policies[5], environment_count=worlds
        )
        pairs = system.evaluation_pairs()
        assert len(pairs) == worlds
        expected = [serial_flight(agent, env).flight_distance for agent, env in pairs]
        assert np.float64(system.average_flight_distance()).tobytes() == mean_bytes(expected)

    def test_one_network_over_three_worlds(self, scale, agents):
        agent = agents[3]
        envs = drone_environments(scale.with_drones(3))
        expected = [serial_flight(agent, env).flight_distance for env in envs]
        assert len(set(expected)) > 1
        before = agent.rng.bit_generator.state
        distance = flight_distance_over_envs(agent, envs)
        assert np.float64(distance).tobytes() == mean_bytes(expected)
        assert agent.rng.bit_generator.state == before

    def test_group_of_systems(self, scale, policies):
        def build():
            frl = build_drone_frl_system(scale.with_drones(4), initial_state=policies[0])
            for index in range(4):
                frl.corrupt_agent(index, policies[2 + 3 * index])
            single = build_drone_single_system(
                scale.with_drones(3), initial_state=policies[7], environment_count=3
            )
            pair = build_drone_frl_system(scale, seed_offset=1, initial_state=policies[9])
            return [frl, single, pair]

        expected = [
            mean_bytes([serial_flight(agent, env).flight_distance for agent, env in pairs])
            for pairs in (system.evaluation_pairs() for system in build())
        ]
        grouped = average_flight_distance_group_lockstep(build())
        alone = [system.average_flight_distance() for system in build()]
        assert [np.float64(value).tobytes() for value in grouped] == expected
        assert [np.float64(value).tobytes() for value in alone] == expected


class TestDeterminism:
    def test_two_flights_of_one_pair_are_identical(self, scale, agents):
        envs = drone_environments(scale)
        pairs = [(agent, env) for agent in agents[::4] for env in envs]
        before = streams(agents)
        first = [summary(lane[0]) for lane in fly_lanes(pairs)]
        second = [summary(lane[0]) for lane in fly_lanes(pairs)]
        assert first == second
        for (agent, env), flown in zip(pairs, first):
            assert summary(serial_flight(agent, env)) == summary(serial_flight(agent, env))
            assert summary(serial_flight(agent, env)) == flown
        assert streams(agents) == before

    def test_one_pair_repeated_in_lanes_flies_one_flight(self, scale, agents):
        env = drone_environments(scale)[1]
        per_lane = fly_lanes([(agents[3], env)] * 3)
        assert len({summary(lane[0]) for lane in per_lane}) == 1
