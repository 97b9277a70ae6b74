"""Property-based tests for the batched-vs-serial byte-identity contract.

The vectorized evaluation path promises *bitwise* equality with the serial
hot path for any environment, bit-error rate, seed and batch size — not just
the handful of configurations the example-based suites pin.  Hypothesis
drives randomized combinations through the vector environments and the
lane-batched fault injector, plus the masked-termination edge case (lanes
finishing at different times) the lockstep evaluator relies on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.envs import DroneNavConfig, DroneNavEnv, GridWorldEnv
from repro.envs.dronenav import DroneNavVecEnv, generate_world
from repro.envs.gridworld import GridWorldVecEnv, generate_layout
from repro.faults.injector import FaultInjector, corrupt_lanes

BERS = st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.25])
DATATYPES = st.sampled_from(["int8", "q1_7_8"])


def _drive_and_compare(vec_env, serial_envs, actions_for, action_count):
    """Step vec and serial lanes together; assert every field matches bitwise."""
    lane_count = len(serial_envs)
    serial_obs = [env.reset() for env in serial_envs]
    vec_obs = vec_env.reset_batch()
    for lane in range(lane_count):
        assert vec_obs[lane].tobytes() == serial_obs[lane].tobytes()
    serial_done = [False] * lane_count
    for _ in range(200):
        if all(serial_done):
            break
        actions = np.array([actions_for(lane) for lane in range(lane_count)],
                           dtype=np.int64)
        actions %= action_count
        result = vec_env.step_batch(actions)
        for lane in range(lane_count):
            if serial_done[lane]:
                assert not result.stepped[lane]
                continue
            serial_result = serial_envs[lane].step(int(actions[lane]))
            assert result.observations[lane].tobytes() == serial_result.observation.tobytes()
            assert result.rewards[lane] == serial_result.reward
            assert bool(result.done[lane]) == serial_result.done
            assert result.outcomes[lane] == serial_result.info["outcome"]
            serial_done[lane] = serial_result.done
    assert all(serial_done)


@settings(max_examples=25, deadline=None)
@given(
    lane_count=st.integers(1, 5),
    seed0=st.integers(0, 1000),
    max_steps=st.integers(1, 30),
    action_seed=st.integers(0, 1000),
)
def test_gridworld_vec_identity(lane_count, seed0, max_steps, action_seed):
    serial = [
        GridWorldEnv(generate_layout(seed=seed0 + i), max_steps=max_steps)
        for i in range(lane_count)
    ]
    vec = GridWorldVecEnv(
        [GridWorldEnv(generate_layout(seed=seed0 + i), max_steps=max_steps)
         for i in range(lane_count)]
    )
    rng = np.random.default_rng(action_seed)
    _drive_and_compare(vec, serial, lambda _: int(rng.integers(0, 4)), 4)


@settings(max_examples=10, deadline=None)
@given(
    lane_count=st.integers(1, 3),
    seed0=st.integers(0, 500),
    max_steps=st.integers(1, 12),
    action_seed=st.integers(0, 500),
)
def test_dronenav_vec_identity(lane_count, seed0, max_steps, action_seed):
    config = DroneNavConfig(image_width=8, image_height=6, max_steps=max_steps)
    serial = [
        DroneNavEnv(generate_world(seed=seed0 + i, length=80.0), config)
        for i in range(lane_count)
    ]
    vec = DroneNavVecEnv(
        [DroneNavEnv(generate_world(seed=seed0 + i, length=80.0), config)
         for i in range(lane_count)]
    )
    rng = np.random.default_rng(action_seed)
    _drive_and_compare(vec, serial, lambda _: int(rng.integers(0, 25)), 25)
    np.testing.assert_array_equal(
        vec.flight_distances, np.array([env.flight_distance for env in serial])
    )


@settings(max_examples=40, deadline=None)
@given(
    lane_count=st.integers(1, 6),
    elements=st.integers(1, 40),
    ber=BERS,
    datatype=DATATYPES,
    seed=st.integers(0, 10_000),
)
def test_corrupt_lanes_matches_serial_loop(lane_count, elements, ber, datatype, seed):
    streams = np.random.SeedSequence(seed).spawn(lane_count)
    serial_inj = [
        FaultInjector(datatype, rng=np.random.default_rng(s)) for s in streams
    ]
    batch_inj = [
        FaultInjector(datatype, rng=np.random.default_rng(s)) for s in streams
    ]
    values = np.random.default_rng(seed + 1).normal(size=(lane_count, elements))
    serial = np.stack(
        [inj.corrupt_array(values[i], ber) for i, inj in enumerate(serial_inj)]
    )
    batched = corrupt_lanes(batch_inj, values, ber)
    assert serial.tobytes() == batched.tobytes()
    for a, b in zip(serial_inj, batch_inj):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
