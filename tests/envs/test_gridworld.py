"""Tests for the GridWorld environment."""

import numpy as np
import pytest

from repro.envs import CellType, GridWorldEnv, GridWorldLayout, default_gridworld_layouts
from repro.envs.gridworld import ACTIONS, enumerate_observations, generate_layout, make_gridworld_suite


class TestLayoutGeneration:
    def test_default_layouts_count_and_size(self):
        layouts = default_gridworld_layouts(count=12)
        assert len(layouts) == 12
        assert all(layout.shape == (10, 10) for layout in layouts)

    def test_layouts_are_solvable(self):
        from repro.envs.gridworld import _path_exists

        for layout in default_gridworld_layouts(count=6):
            assert _path_exists(layout)

    def test_deterministic_generation(self):
        a = generate_layout(seed=5)
        b = generate_layout(seed=5)
        np.testing.assert_array_equal(a.grid, b.grid)
        assert a.source == b.source and a.goal == b.goal

    def test_out_of_bounds_is_hell(self):
        layout = generate_layout(seed=1)
        assert layout.cell(-1, 0) == CellType.HELL
        assert layout.cell(0, 10) == CellType.HELL

    def test_render_symbols(self):
        text = generate_layout(seed=2).render()
        assert "S" in text and "G" in text and "#" in text

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_layout(seed=0, size=2)
        with pytest.raises(ValueError):
            generate_layout(seed=0, obstacle_fraction=0.9)

    def test_layout_validation(self):
        grid = np.zeros((4, 4), dtype=np.int8)
        grid[1, 1] = int(CellType.GOAL)
        with pytest.raises(ValueError):
            GridWorldLayout(grid=grid, source=(0, 0), goal=(2, 2))

    @pytest.mark.parametrize(
        "source, goal",
        [
            ((-1, 0), (-1, -1)),
            ((0, 0), (-1, 4)),
            ((5, 0), (4, 4)),
            ((0, -1), (4, 4)),
            ((0, 0), (4, 5)),
        ],
    )
    def test_layout_rejects_off_grid_source_or_goal(self, source, goal):
        grid = np.zeros((5, 5), dtype=np.int8)
        grid[4, 4] = int(CellType.GOAL)
        with pytest.raises(ValueError, match="outside the 5x5 grid"):
            GridWorldLayout(grid=grid, source=source, goal=goal)

    def test_layout_grid_is_a_read_only_copy(self):
        grid = np.zeros((4, 4), dtype=np.int8)
        grid[3, 3] = int(CellType.GOAL)
        layout = GridWorldLayout(grid=grid, source=(0, 0), goal=(3, 3))
        grid[1, 1] = int(CellType.HELL)
        assert layout.grid[1, 1] == CellType.FREE
        with pytest.raises(ValueError):
            layout.grid[1, 1] = int(CellType.HELL)

    def test_generation_is_memoized(self):
        assert generate_layout(seed=5) is generate_layout(seed=5)
        assert generate_layout(seed=5, name="other") is not generate_layout(seed=5)
        assert not generate_layout(seed=5).grid.flags.writeable

    def test_generation_needs_an_integer_seed(self):
        with pytest.raises(TypeError):
            generate_layout(seed=None)


class TestObservations:
    def test_local_mode_shape_and_values(self):
        env = GridWorldEnv(generate_layout(seed=3), observation_mode="local")
        observation = env.reset()
        assert observation.shape == (4,)
        assert set(np.unique(observation)).issubset({-1.0, 0.0, 1.0})

    def test_goal_direction_mode_shape(self):
        env = GridWorldEnv(generate_layout(seed=3))
        assert env.reset().shape == (6,)

    def test_goal_direction_signs(self):
        layout = generate_layout(seed=4)
        env = GridWorldEnv(layout)
        observation = env.reset()
        row, col = layout.source
        goal_row, goal_col = layout.goal
        assert observation[4] == np.sign(goal_row - row)
        assert observation[5] == np.sign(goal_col - col)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GridWorldEnv(generate_layout(seed=0), observation_mode="pixels")

    def test_enumerate_observations_sizes(self):
        assert enumerate_observations(4).shape == (81, 4)
        assert enumerate_observations(6).shape == (729, 6)

    def test_enumerate_observations_unique(self):
        observations = enumerate_observations(4)
        assert len({tuple(row) for row in observations}) == 81


class TestStepDynamics:
    def make_env(self):
        # Hand-built 4x4 layout: source at (0,0), goal at (0,3), hell at (1,1).
        grid = np.zeros((4, 4), dtype=np.int8)
        grid[0, 0] = int(CellType.SOURCE)
        grid[0, 3] = int(CellType.GOAL)
        grid[1, 1] = int(CellType.HELL)
        layout = GridWorldLayout(grid=grid, source=(0, 0), goal=(0, 3), name="manual")
        return GridWorldEnv(layout, max_steps=20)

    def test_requires_reset(self):
        env = self.make_env()
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_move_toward_goal_rewarded(self):
        env = self.make_env()
        env.reset()
        result = env.step(2)  # right, toward the goal
        assert result.reward == pytest.approx(GridWorldEnv.REWARD_CLOSER)
        assert not result.done

    def test_move_away_penalized(self):
        env = self.make_env()
        env.reset()
        result = env.step(1)  # down, away from the goal column 3? still same distance change
        assert result.reward in (GridWorldEnv.REWARD_CLOSER, GridWorldEnv.REWARD_FARTHER)

    def test_reach_goal(self):
        env = self.make_env()
        env.reset()
        outcomes = [env.step(2) for _ in range(3)]
        assert outcomes[-1].done
        assert outcomes[-1].info["outcome"] == "goal"
        assert outcomes[-1].reward == pytest.approx(GridWorldEnv.REWARD_GOAL)

    def test_crash_into_wall(self):
        env = self.make_env()
        env.reset()
        result = env.step(0)  # up and out of the grid
        assert result.done
        assert result.info["outcome"] == "crash"
        assert result.reward == pytest.approx(GridWorldEnv.REWARD_CRASH)

    def test_crash_into_hell(self):
        env = self.make_env()
        env.reset()
        env.step(1)  # down to (1,0)
        result = env.step(2)  # right into the hell cell at (1,1)
        assert result.done and result.info["outcome"] == "crash"

    def test_timeout(self):
        env = self.make_env()
        env.reset()
        done = False
        steps = 0
        while not done:
            result = env.step(1 if steps % 2 == 0 else 0)  # oscillate down/up in place
            done = result.done
            steps += 1
        assert steps == env.max_steps
        assert result.info["outcome"] == "timeout"

    def test_invalid_action(self):
        env = self.make_env()
        env.reset()
        with pytest.raises(ValueError):
            env.step(7)

    def test_action_count_matches_action_table(self):
        assert GridWorldEnv.action_count == len(ACTIONS) == 4


class TestSuite:
    def test_suite_has_one_env_per_agent(self):
        suite = make_gridworld_suite(agent_count=5)
        assert len(suite) == 5
        assert len({env.layout.name for env in suite}) == 5

    def test_suite_observation_mode_forwarded(self):
        suite = make_gridworld_suite(agent_count=2, observation_mode="local")
        assert all(env.observation_shape == (4,) for env in suite)
