"""Bitwise identity of the vectorized environments against their serial twins.

The vectorized campaign path stands on one contract: a ``GridWorldVecEnv`` /
``DroneNavVecEnv`` lane must produce *byte-identical* observations, rewards
and termination flags to the serial environment it stacks.  These tests drive
vec and serial lanes with the same action streams and compare every step,
plus the masked-termination edge cases (a lane finishing at t=0, every lane
finished) the lockstep evaluator leans on.
"""

import numpy as np
import pytest

from repro.envs import DroneNavConfig, DroneNavEnv, GridWorldEnv
from repro.envs.dronenav import DroneNavVecEnv, DroneWorld, generate_world
from repro.envs.gridworld import GridWorldVecEnv, generate_layout


def _drone_envs(count, config=None, seed0=11):
    config = config or DroneNavConfig(image_width=8, image_height=8, max_steps=30)
    return [
        DroneNavEnv(generate_world(seed=seed0 + i, length=120.0), config)
        for i in range(count)
    ]


def _gridworld_envs(count, max_steps=25, seed0=3):
    return [
        GridWorldEnv(generate_layout(seed=seed0 + i), max_steps=max_steps)
        for i in range(count)
    ]


def _assert_lockstep_identical(vec_env, serial_envs, action_streams, max_rounds=200):
    """Drive vec and serial lanes with the same actions; compare bytes each step."""
    lane_count = len(serial_envs)
    serial_obs = [env.reset() for env in serial_envs]
    vec_obs = vec_env.reset_batch()
    for lane in range(lane_count):
        assert vec_obs[lane].tobytes() == serial_obs[lane].tobytes()
    serial_done = [False] * lane_count
    for round_index in range(max_rounds):
        if all(serial_done):
            break
        actions = np.array(
            [next(stream) for stream in action_streams], dtype=np.int64
        )
        result = vec_env.step_batch(actions)
        for lane in range(lane_count):
            if serial_done[lane]:
                assert not result.stepped[lane]
                assert result.rewards[lane] == 0.0
                assert result.outcomes[lane] is None
                continue
            serial_result = serial_envs[lane].step(int(actions[lane]))
            assert result.stepped[lane]
            assert result.observations[lane].tobytes() == serial_result.observation.tobytes()
            assert result.rewards[lane] == serial_result.reward
            assert bool(result.done[lane]) == serial_result.done
            assert result.outcomes[lane] == serial_result.info["outcome"]
            serial_done[lane] = serial_result.done
    assert all(serial_done), "episodes did not terminate within the round budget"
    np.testing.assert_array_equal(vec_env.done, np.array(serial_done))


class TestGridWorldVecIdentity:
    @pytest.mark.parametrize("lane_count", [1, 3, 5])
    def test_step_identity_random_actions(self, lane_count):
        envs = _gridworld_envs(lane_count)
        vec_env = GridWorldVecEnv(_gridworld_envs(lane_count))
        rng = np.random.default_rng(42)
        streams = [iter(lambda: int(rng.integers(0, 4)), None) for _ in range(lane_count)]
        _assert_lockstep_identical(vec_env, envs, streams)

    def test_timeout_lanes_match_serial(self):
        # Action 0 repeated forever forces crash-or-timeout terminations.
        envs = _gridworld_envs(3, max_steps=6)
        vec_env = GridWorldVecEnv(_gridworld_envs(3, max_steps=6))
        streams = [iter(lambda: 0, None) for _ in range(3)]
        _assert_lockstep_identical(vec_env, envs, streams)

    def test_heterogeneous_lanes_rejected(self):
        small = GridWorldEnv(generate_layout(seed=1))
        with pytest.raises(ValueError, match="max_steps"):
            GridWorldVecEnv([small, GridWorldEnv(generate_layout(seed=2), max_steps=7)])
        with pytest.raises(TypeError):
            GridWorldVecEnv([small, object()])


class TestDroneNavVecIdentity:
    @pytest.mark.parametrize("lane_count", [1, 4])
    def test_step_identity_random_actions(self, lane_count):
        envs = _drone_envs(lane_count)
        vec_env = DroneNavVecEnv(_drone_envs(lane_count))
        rng = np.random.default_rng(7)
        streams = [iter(lambda: int(rng.integers(0, 25)), None) for _ in range(lane_count)]
        _assert_lockstep_identical(vec_env, envs, streams)
        np.testing.assert_array_equal(
            vec_env.flight_distances,
            np.array([env.flight_distance for env in envs]),
        )

    def test_lanes_may_share_one_world(self):
        config = DroneNavConfig(image_width=8, image_height=8, max_steps=20)
        world = generate_world(seed=5, length=120.0)
        envs = [DroneNavEnv(world, config) for _ in range(3)]
        vec_env = DroneNavVecEnv([DroneNavEnv(world, config) for _ in range(3)])
        rng = np.random.default_rng(9)
        streams = [iter(lambda: int(rng.integers(0, 25)), None) for _ in range(3)]
        _assert_lockstep_identical(vec_env, envs, streams)

    def test_mismatched_configs_rejected(self):
        world = generate_world(seed=5, length=120.0)
        a = DroneNavEnv(world, DroneNavConfig(image_width=8, image_height=8))
        b = DroneNavEnv(world, DroneNavConfig(image_width=10, image_height=8))
        with pytest.raises(ValueError, match="DroneNavConfig"):
            DroneNavVecEnv([a, b])


class TestMaskedTermination:
    def test_all_lanes_done_raises(self):
        vec_env = GridWorldVecEnv(_gridworld_envs(2, max_steps=1))
        vec_env.reset_batch()
        vec_env.step_batch(np.zeros(2, dtype=np.int64))
        assert vec_env.done.all()
        with pytest.raises(RuntimeError, match="reset_batch"):
            vec_env.step_batch(np.zeros(2, dtype=np.int64))

    def test_lane_done_on_first_step_stays_frozen(self):
        # Lane 0's corridor is shorter than one step, so it survives at t=0;
        # lane 1 keeps flying, and lane 0's state never moves again.
        config = DroneNavConfig(image_width=8, image_height=8, max_steps=20)
        vec_env = DroneNavVecEnv(
            [DroneNavEnv(DroneWorld(length=length), config) for length in (1.0, 120.0)]
        )
        vec_env.reset_batch()
        first = vec_env.step_batch(np.full(2, 12, dtype=np.int64))
        assert first.done.tolist() == [True, False] and first.outcomes[0] == "survived"
        frozen = vec_env.observations[0].copy()
        distance = vec_env.flight_distances[0]
        result = vec_env.step_batch(np.array([3, 12], dtype=np.int64))
        assert not result.stepped[0] and result.stepped[1]
        assert vec_env.observations[0].tobytes() == frozen.tobytes()
        assert vec_env.flight_distances[0] == distance
        assert result.rewards[0] == 0.0 and result.outcomes[0] is None

    def test_drone_all_done_raises(self):
        config = DroneNavConfig(image_width=8, image_height=8, max_steps=1)
        vec_env = DroneNavVecEnv(_drone_envs(2, config=config))
        vec_env.reset_batch()
        vec_env.step_batch(np.zeros(2, dtype=np.int64))
        assert vec_env.done.all()
        with pytest.raises(RuntimeError, match="reset_batch"):
            vec_env.step_batch(np.zeros(2, dtype=np.int64))
