"""Byte oracle for the table-driven GridWorld kernels.

``GridWorldEnv`` and ``GridWorldVecEnv`` read observations and cell types
from per-layout lookup tables.  The reference below keeps the per-cell
``observe``/``step`` they replaced, going through ``layout.cell`` for every
neighbour, and every test compares observation bytes, rewards, done flags
and info dicts against it.
"""

import numpy as np
import pytest

from repro.envs import CellType, GridWorldEnv
from repro.envs.gridworld import (
    ACTION_NAMES,
    ACTIONS,
    GridWorldVecEnv,
    default_gridworld_layouts,
)

SIZES = (4, 7, 10)
MODES = ("local", "goal_direction")


class ReferenceGridWorld:
    """The per-cell GridWorld kernel, one ``layout.cell`` call per neighbour."""

    def __init__(self, layout, max_steps, observation_mode):
        self.layout = layout
        self.max_steps = max_steps
        self.observation_mode = observation_mode
        self.position = layout.source
        self.steps = 0
        self.done = True

    def reset(self):
        self.position = self.layout.source
        self.steps = 0
        self.done = False
        return self.observe(self.position)

    def observe(self, position):
        row, col = position
        size = 4 if self.observation_mode == "local" else 6
        observation = np.zeros(size, dtype=np.float64)
        for index, (d_row, d_col) in enumerate(ACTIONS):
            cell = self.layout.cell(row + d_row, col + d_col)
            if cell == CellType.HELL:
                observation[index] = -1.0
            elif cell == CellType.GOAL:
                observation[index] = 1.0
            else:
                observation[index] = 0.0
        if self.observation_mode == "goal_direction":
            goal_row, goal_col = self.layout.goal
            observation[4] = float(np.sign(goal_row - row))
            observation[5] = float(np.sign(goal_col - col))
        return observation

    def _distance_to_goal(self, position):
        return abs(position[0] - self.layout.goal[0]) + abs(position[1] - self.layout.goal[1])

    def step(self, action):
        d_row, d_col = ACTIONS[action]
        previous = self.position
        candidate = (previous[0] + d_row, previous[1] + d_col)
        cell = self.layout.cell(*candidate)
        self.steps += 1
        info = {"position": candidate, "steps": self.steps, "action": ACTION_NAMES[action]}
        if cell == CellType.HELL:
            self.done = True
            info["outcome"] = "crash"
            return self.observe(previous), GridWorldEnv.REWARD_CRASH, True, info
        self.position = candidate
        if cell == CellType.GOAL:
            self.done = True
            info["outcome"] = "goal"
            return self.observe(candidate), GridWorldEnv.REWARD_GOAL, True, info
        if self._distance_to_goal(candidate) < self._distance_to_goal(previous):
            reward = GridWorldEnv.REWARD_CLOSER
        else:
            reward = GridWorldEnv.REWARD_FARTHER
        if self.steps >= self.max_steps:
            self.done = True
            info["outcome"] = "timeout"
            return self.observe(candidate), reward, True, info
        info["outcome"] = "move"
        return self.observe(candidate), reward, False, info


def _layouts():
    return [layout for size in SIZES for layout in default_gridworld_layouts(count=12, size=size)]


def _walk_action(rng, observation):
    """Mostly a move that does not crash, sometimes any move."""
    safe = [action for action in range(4) if observation[action] != -1.0]
    if safe and rng.random() < 0.85:
        return int(safe[int(rng.integers(0, len(safe)))])
    return int(rng.integers(0, 4))


class TestObservationTable:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_cell_matches_the_reference(self, mode):
        for layout in _layouts():
            env = GridWorldEnv(layout, observation_mode=mode)
            reference = ReferenceGridWorld(layout, env.max_steps, mode)
            rows, cols = layout.shape
            assert env.observation_table.shape == (rows, cols) + env.observation_shape
            for row in range(rows):
                for col in range(cols):
                    expected = reference.observe((row, col)).tobytes()
                    assert env.observe((row, col)).tobytes() == expected
                    assert env.observation_table[row, col].tobytes() == expected

    def test_tables_are_read_only(self):
        env = GridWorldEnv(default_gridworld_layouts(count=1)[0])
        observation = env.reset()
        with pytest.raises(ValueError):
            observation[0] = 5.0
        with pytest.raises(ValueError):
            env.observation_table[0, 0, 0] = 5.0

    @pytest.mark.parametrize("position", [(-1, 0), (0, -1), (-1, -1), (10, 0), (0, 10)])
    def test_observe_rejects_off_grid_positions(self, position):
        env = GridWorldEnv(default_gridworld_layouts(count=1)[0])
        with pytest.raises(ValueError, match="outside"):
            env.observe(position)


class TestStepOracle:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("max_steps", [1, 100])
    def test_one_step_from_every_cell_matches_the_reference(self, mode, max_steps):
        outcomes = set()
        for layout in _layouts():
            env = GridWorldEnv(layout, max_steps=max_steps, observation_mode=mode)
            reference = ReferenceGridWorld(layout, max_steps, mode)
            rows, cols = layout.shape
            for cell in np.ndindex(rows, cols):
                for action in range(4):
                    env.reset()
                    reference.reset()
                    env._position = reference.position = cell
                    result = env.step(action)
                    expected_observation, reward, done, info = reference.step(action)
                    assert result.observation.tobytes() == expected_observation.tobytes()
                    assert (result.reward, result.done, result.info) == (reward, done, info)
                    assert env.position == reference.position
                    outcomes.add(info["outcome"])
        assert outcomes == {"crash", "goal", "move" if max_steps > 1 else "timeout"}

    @pytest.mark.parametrize("mode", MODES)
    def test_random_walks_match_the_reference(self, mode):
        outcomes = set()
        rng = np.random.default_rng(7)
        for layout_index, layout in enumerate(_layouts()):
            max_steps = 6 + 5 * (layout_index % 4)
            env = GridWorldEnv(layout, max_steps=max_steps, observation_mode=mode)
            reference = ReferenceGridWorld(layout, max_steps, mode)
            for _walk in range(8):
                observation = env.reset()
                assert observation.tobytes() == reference.reset().tobytes()
                done = False
                while not done:
                    action = _walk_action(rng, observation)
                    previous = env.position
                    result = env.step(action)
                    expected_observation, reward, done, info = reference.step(action)
                    assert result.observation.tobytes() == expected_observation.tobytes()
                    assert result.reward == reward
                    assert result.done == done
                    assert result.info == info
                    assert env.position == reference.position
                    if info["outcome"] == "crash":
                        assert env.position == previous
                    observation = result.observation
                outcomes.add(info["outcome"])
        assert outcomes == {"crash", "goal", "timeout"}

    @pytest.mark.parametrize("mode", MODES)
    def test_vector_lanes_match_the_reference(self, mode):
        rng = np.random.default_rng(11)
        outcomes = set()
        for size in SIZES:
            layouts = default_gridworld_layouts(count=12, size=size)
            vec_env = GridWorldVecEnv(
                [GridWorldEnv(layout, max_steps=15, observation_mode=mode) for layout in layouts]
            )
            references = [ReferenceGridWorld(layout, 15, mode) for layout in layouts]
            observations = vec_env.reset_batch().copy()
            for lane, reference in enumerate(references):
                assert observations[lane].tobytes() == reference.reset().tobytes()
            while not vec_env.done.all():
                actions = np.array(
                    [_walk_action(rng, observations[lane]) for lane in range(len(layouts))]
                )
                result = vec_env.step_batch(actions)
                for lane, reference in enumerate(references):
                    if not result.stepped[lane]:
                        continue
                    expected_observation, reward, done, info = reference.step(int(actions[lane]))
                    assert result.observations[lane].tobytes() == expected_observation.tobytes()
                    assert result.rewards[lane] == reward
                    assert bool(result.done[lane]) == done
                    assert result.outcomes[lane] == info["outcome"]
                    assert tuple(vec_env.positions[lane]) == reference.position
                    outcomes.add(info["outcome"])
                observations = result.observations.copy()
        assert {"crash", "goal", "timeout"} <= outcomes
