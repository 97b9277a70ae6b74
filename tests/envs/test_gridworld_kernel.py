"""Byte oracle for the table-driven GridWorld kernels.

``GridWorldEnv`` and ``GridWorldVecEnv`` read observations and cell types
from lookup tables that each layout builds once and keeps.  The reference
below keeps the per-cell ``observe``/``step`` they replaced, going through
``layout.cell`` for every neighbour, and every test compares observation
bytes, rewards, done flags and info dicts against it.  The layout tables
are compared with the per-environment tables they replaced, and
``GridWorldEnv.walk`` with an ``env.step`` loop: success and the random
stream's state after every episode.
"""

import numpy as np
import pytest

from repro.core.config import GridWorldScale
from repro.core.workloads import gridworld_environments
from repro.envs import CellType, GridWorldEnv
from repro.envs.gridworld import (
    ACTION_NAMES,
    ACTIONS,
    CRASH_CODE,
    GOAL_CODE,
    GridWorldVecEnv,
    default_gridworld_layouts,
    make_gridworld_suite,
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


def reference_lookup_tables(layout, observation_mode):
    """The per-environment tables that the layouts' own tables replaced."""
    rows, cols = layout.shape
    cells = np.full((rows + 2, cols + 2), int(CellType.HELL), dtype=np.int64)
    cells[1:-1, 1:-1] = layout.grid
    neighbours = np.stack(
        [
            cells[1 + d_row : rows + 1 + d_row, 1 + d_col : cols + 1 + d_col]
            for d_row, d_col in ACTIONS
        ],
        axis=-1,
    )
    columns = [
        np.where(
            neighbours == int(CellType.HELL),
            -1.0,
            np.where(neighbours == int(CellType.GOAL), 1.0, 0.0),
        )
    ]
    if observation_mode == "goal_direction":
        goal_row, goal_col = layout.goal
        offsets = np.broadcast_arrays(
            np.sign(goal_row - np.arange(rows))[:, None],
            np.sign(goal_col - np.arange(cols))[None, :],
        )
        columns.append(np.stack(offsets, axis=-1).astype(np.float64))
    return cells, np.concatenate(columns, axis=-1)


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
            table = layout.observation_table(mode)
            assert table.shape == (rows, cols) + env.observation_shape
            for row in range(rows):
                for col in range(cols):
                    expected = reference.observe((row, col)).tobytes()
                    assert env.observe((row, col)).tobytes() == expected
                    assert table[row, col].tobytes() == expected

    def test_tables_are_read_only(self):
        env = GridWorldEnv(default_gridworld_layouts(count=1)[0])
        observation = env.reset()
        with pytest.raises(ValueError):
            observation[0] = 5.0
        with pytest.raises(ValueError):
            env.layout.observation_table("goal_direction")[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            env.layout.bordered_cells[0, 0] = 0
        with pytest.raises(ValueError):
            env.layout.observation_table("local")[0, 0, 0] = 5.0
        assert isinstance(env.layout.successors, tuple)

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


class TestLayoutTables:
    @pytest.mark.parametrize("mode", MODES)
    def test_tables_match_the_per_environment_tables(self, mode):
        for layout in _layouts():
            cells, observations = reference_lookup_tables(layout, mode)
            table = layout.observation_table(mode)
            assert layout.bordered_cells.dtype == cells.dtype
            assert layout.bordered_cells.tobytes() == cells.tobytes()
            assert table.dtype == observations.dtype and table.shape == observations.shape
            assert table.tobytes() == observations.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_distinct_observations_index_every_cell(self, mode):
        for layout in _layouts():
            table = layout.observation_table(mode)
            rows, inverse = layout.distinct_observations(mode)
            flat = table.reshape(-1, table.shape[-1])
            assert len({row.tobytes() for row in rows}) == len(rows)
            assert {row.tobytes() for row in flat} == {row.tobytes() for row in rows}
            assert rows.dtype == table.dtype and inverse.shape == (len(flat),)
            assert rows[inverse].tobytes() == flat.tobytes()
            assert not rows.flags.writeable and not inverse.flags.writeable
            assert layout.distinct_observations(mode)[0] is rows

    def test_successors_match_the_reference_step(self):
        for layout in _layouts():
            rows, cols = layout.shape
            assert len(layout.successors) == 4 * rows * cols
            reference = ReferenceGridWorld(layout, 100, "local")
            for row, col in np.ndindex(rows, cols):
                for action in range(4):
                    reference.reset()
                    reference.position = (row, col)
                    outcome = reference.step(action)[3]["outcome"]
                    successor = layout.successors[4 * (row * cols + col) + action]
                    if outcome == "crash":
                        assert successor == CRASH_CODE
                    elif outcome == "goal":
                        assert successor == GOAL_CODE
                    else:
                        assert successor == reference.position[0] * cols + reference.position[1]
                    assert type(successor) is int

    def test_environments_on_one_layout_share_its_tables(self):
        first, second = (make_gridworld_suite(2)[0] for _ in range(2))
        assert first.layout is second.layout
        table = first.layout.observation_table("goal_direction")
        assert first.observe().base is table and second.observe().base is table
        local = GridWorldEnv(first.layout, observation_mode="local")
        assert local.observe().base is first.layout.observation_table("local")
        assert first.layout.successors is second.layout.successors


def reference_walk(env, actions, epsilon, rng, fault_step=None, fault_actions=None):
    """One greedy episode through ``env.step``, drawing as ``greedy_episode`` does."""
    cols = env.layout.shape[1]
    env.reset()
    done = False
    step = 0
    outcome = ""
    while not done:
        row, col = env.position
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(0, env.action_count))
        elif step == fault_step:
            action = fault_actions[row * cols + col]
        else:
            action = actions[row * cols + col]
        result = env.step(action)
        done = result.done
        outcome = result.info["outcome"]
        step += 1
    return outcome, step


def _toward_goal(layout):
    """A table that follows a shortest path to the goal from every reachable cell."""
    rows, cols = layout.shape
    distance = {layout.goal: 0}
    frontier = [layout.goal]
    while frontier:
        nxt = []
        for row, col in frontier:
            for d_row, d_col in ACTIONS:
                cell = (row - d_row, col - d_col)
                if cell not in distance and layout.cell(*cell) != CellType.HELL:
                    distance[cell] = distance[(row, col)] + 1
                    nxt.append(cell)
        frontier = nxt
    table = [0] * (rows * cols)
    for (row, col), steps in distance.items():
        for action, (d_row, d_col) in enumerate(ACTIONS):
            if distance.get((row + d_row, col + d_col), -1) == steps - 1:
                table[row * cols + col] = action
                break
    return table


def _staying(layout):
    """A table that only moves onto free cells where it can, so it tends to time out."""
    rows, cols = layout.shape
    table = [0] * (rows * cols)
    for row, col in np.ndindex(rows, cols):
        for action, (d_row, d_col) in enumerate(ACTIONS):
            if layout.cell(row + d_row, col + d_col) in (CellType.FREE, CellType.SOURCE):
                table[row * cols + col] = action
                break
    return table


def _action_tables(layout, rng):
    """Random, goal-seeking, time-out-prone and crash-at-step-1 action tables."""
    rows, cols = layout.shape
    tables = [
        rng.integers(0, 4, rows * cols).tolist(),
        _toward_goal(layout),
        _staying(layout),
    ]
    source = layout.source[0] * cols + layout.source[1]
    for action, (d_row, d_col) in enumerate(ACTIONS):
        if layout.cell(layout.source[0] + d_row, layout.source[1] + d_col) == CellType.HELL:
            crash = list(tables[2])
            crash[source] = action
            tables.append(crash)
            break
    return tables


def _walk_envs():
    return make_gridworld_suite(12, 10, 100) + list(gridworld_environments(GridWorldScale.tiny()))


class TestWalkOracle:
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.5, 1.0])
    def test_walk_matches_the_step_loop(self, epsilon):
        rng = np.random.default_rng(23)
        outcomes = set()
        for env_index, env in enumerate(_walk_envs()):
            twin = GridWorldEnv(env.layout, env.max_steps, env.observation_mode)
            max_steps = env.max_steps
            env.reset()
            env.step(_staying(env.layout)[env.layout.source[0] * env.layout.shape[1]
                                          + env.layout.source[1]])
            fault_steps = (None, 0, max_steps // 2, max_steps - 1, max_steps, max_steps + 7)
            for actions in _action_tables(env.layout, rng):
                fault_actions = rng.integers(0, 4, len(actions)).tolist()
                for fault_step in fault_steps:
                    seed = int(rng.integers(0, 2**32))
                    walk_rng = np.random.default_rng(seed)
                    reference_rng = np.random.default_rng(seed)
                    for _episode in range(2):
                        before = (env.position, env._steps, env._done)
                        success = env.walk(actions, epsilon, walk_rng, fault_step, fault_actions)
                        assert (env.position, env._steps, env._done) == before
                        outcome, steps = reference_walk(
                            twin, actions, epsilon, reference_rng, fault_step, fault_actions
                        )
                        assert success is (outcome == "goal")
                        assert walk_rng.bit_generator.state == reference_rng.bit_generator.state
                        outcomes.add((outcome, steps == 1))
        assert {("crash", True), ("crash", False)} <= outcomes
        if epsilon <= 0.05:
            assert {("goal", False), ("timeout", False)} <= outcomes

    def test_fault_step_takes_the_fault_table(self):
        checked = 0
        for env in make_gridworld_suite(12):
            toward = _toward_goal(env.layout)
            tables = _action_tables(env.layout, np.random.default_rng(0))
            if len(tables) < 4:
                continue
            crash = list(toward)
            source = env.layout.source[0] * env.layout.shape[1] + env.layout.source[1]
            crash[source] = tables[3][source]
            rng = np.random.default_rng(0)
            assert env.walk(toward, 0.0, rng)
            assert not env.walk(toward, 0.0, rng, 0, crash)
            assert env.walk(toward, 0.0, rng, 1, crash)
            assert env.walk(crash, 0.0, rng, 0, toward)
            checked += 1
        assert checked

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5])
    def test_walk_rejects_epsilon_outside_the_unit_interval(self, epsilon):
        env = make_gridworld_suite(1)[0]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="epsilon"):
            env.walk([0] * 100, epsilon, rng)
        assert rng.bit_generator.state == before
