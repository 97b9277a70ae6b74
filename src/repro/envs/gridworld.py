"""GridWorld: the paper's small-scale navigation workload.

A 10×10 maze whose cells are one of {hell, goal, source, free}.  The agent
starts at the source and must reach the goal while avoiding hell cells.  At
every step it observes the nature of the four neighbouring cells (up, down,
right, left) encoded as -1 (hell / out of bounds), +1 (goal) or 0 (free), so
the state space has |S| = 3^4 = 81 elements.  Rewards are -1 for crashing,
+1 for reaching the goal, +0.1 for moving closer to the goal and -0.1 for
moving away from it.  The paper combines 12 such environments into 4 grids; we
provide 12 deterministic layouts generated from per-environment seeds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment, StepResult, VecStepResult
from repro.utils.rng import as_rng


class CellType(IntEnum):
    """Cell categories of the grid maze."""

    FREE = 0
    HELL = 1
    GOAL = 2
    SOURCE = 3


# Action encoding used throughout the reproduction: up, down, right, left.
ACTIONS: Tuple[Tuple[int, int], ...] = ((-1, 0), (1, 0), (0, 1), (0, -1))
ACTION_NAMES: Tuple[str, ...] = ("up", "down", "right", "left")

# Plain-int cell codes for table lookups.
_HELL = int(CellType.HELL)
_GOAL = int(CellType.GOAL)

# Successor-table codes of the two moves that end a walk before its last step.
CRASH_CODE = -1
GOAL_CODE = -2


@dataclass(frozen=True)
class GridWorldLayout:
    """An immutable maze description.

    The layout keeps a read-only copy of ``grid`` and, built on first use and
    kept, read-only lookup tables that every environment on the layout
    shares: :attr:`bordered_cells`, one :meth:`observation_table` and one
    :meth:`distinct_observations` index per observation mode, and
    :attr:`successors`.
    """

    grid: np.ndarray  # 2D array of CellType values
    source: Tuple[int, int]
    goal: Tuple[int, int]
    name: str = "layout"

    def __post_init__(self) -> None:
        grid = np.array(self.grid)
        if grid.ndim != 2:
            raise ValueError("grid must be a 2D array")
        rows, cols = grid.shape
        for role, (row, col) in (("source", self.source), ("goal", self.goal)):
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(f"{role} {(row, col)} lies outside the {rows}x{cols} grid")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if grid[self.source] == CellType.HELL:
            raise ValueError("source cell must not be a hell cell")
        if grid[self.goal] != CellType.GOAL:
            raise ValueError("goal coordinates must point at a GOAL cell")
        object.__setattr__(self, "_observation_tables", {})
        object.__setattr__(self, "_distinct_observations", {})

    @property
    def shape(self) -> Tuple[int, int]:
        """The (rows, columns) extent of the grid."""
        return tuple(self.grid.shape)

    def cell(self, row: int, col: int) -> CellType:
        """Cell type at (row, col); out-of-bounds cells are treated as HELL."""
        rows, cols = self.grid.shape
        if not (0 <= row < rows and 0 <= col < cols):
            return CellType.HELL
        return CellType(int(self.grid[row, col]))

    @cached_property
    def bordered_cells(self) -> np.ndarray:
        """The cell grid inside a one-cell HELL border, read-only.

        The border turns "out of bounds is hell" into a plain lookup: cell
        ``(row, col)`` sits at ``bordered_cells[row + 1, col + 1]``.
        """
        rows, cols = self.shape
        cells = np.full((rows + 2, cols + 2), _HELL, dtype=np.int64)
        cells[1:-1, 1:-1] = self.grid
        cells.setflags(write=False)
        return cells

    def observation_table(self, observation_mode: str) -> np.ndarray:
        """Read-only ``(rows, cols, obs)`` table of every cell's observation.

        See :class:`GridWorldEnv` for the two modes.  Observations hold exact
        small constants (-1, 0, +1), so the table is the same bytes however
        it is computed.
        """
        table = self._observation_tables.get(observation_mode)
        if table is not None:
            return table
        if observation_mode not in GridWorldEnv.OBSERVATION_MODES:
            raise ValueError(
                f"observation_mode must be one of {GridWorldEnv.OBSERVATION_MODES}, "
                f"got {observation_mode!r}"
            )
        neighbours = self._neighbours(self.bordered_cells)
        columns = [np.where(neighbours == _HELL, -1.0, np.where(neighbours == _GOAL, 1.0, 0.0))]
        if observation_mode == "goal_direction":
            rows, cols = self.shape
            goal_row, goal_col = self.goal
            offsets = np.broadcast_arrays(
                np.sign(goal_row - np.arange(rows))[:, None],
                np.sign(goal_col - np.arange(cols))[None, :],
            )
            columns.append(np.stack(offsets, axis=-1).astype(np.float64))
        table = np.concatenate(columns, axis=-1)
        table.setflags(write=False)
        self._observation_tables[observation_mode] = table
        return table

    def distinct_observations(self, observation_mode: str) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct rows of :meth:`observation_table` and an inverse index into them.

        Both read-only: flat cell ``row * cols + col`` observes
        ``rows[inverse[row * cols + col]]``.
        """
        distinct = self._distinct_observations.get(observation_mode)
        if distinct is None:
            table = self.observation_table(observation_mode)
            rows, inverse = np.unique(
                table.reshape(-1, table.shape[-1]), axis=0, return_inverse=True
            )
            distinct = (rows, inverse.reshape(-1))
            for array in distinct:
                array.setflags(write=False)
            self._distinct_observations[observation_mode] = distinct
        return distinct

    @cached_property
    def successors(self) -> Tuple[int, ...]:
        """Where every move leads, as a tuple of plain ints.

        Cells are numbered flat, ``row * cols + col``.  Entry ``4 * cell +
        action`` is the flat cell the move enters, or :data:`CRASH_CODE`
        when it enters a hell cell or leaves the grid, or :data:`GOAL_CODE`
        when it enters the goal.
        """
        rows, cols = self.shape
        flat = np.full((rows + 2, cols + 2), CRASH_CODE, dtype=np.int64)
        flat[1:-1, 1:-1] = np.arange(rows * cols).reshape(rows, cols)
        targets = self._neighbours(self.bordered_cells)
        successors = np.where(
            targets == _HELL,
            CRASH_CODE,
            np.where(targets == _GOAL, GOAL_CODE, self._neighbours(flat)),
        )
        return tuple(successors.reshape(-1).tolist())

    def _neighbours(self, bordered: np.ndarray) -> np.ndarray:
        """``(rows, cols, 4)`` stack of each cell's neighbour in ``bordered``, per action."""
        rows, cols = self.shape
        return np.stack(
            [
                bordered[1 + d_row : rows + 1 + d_row, 1 + d_col : cols + 1 + d_col]
                for d_row, d_col in ACTIONS
            ],
            axis=-1,
        )

    def render(self) -> str:
        """ASCII rendering (S=source, G=goal, #=hell, .=free)."""
        symbols = {CellType.FREE: ".", CellType.HELL: "#", CellType.GOAL: "G", CellType.SOURCE: "S"}
        lines = []
        for row in range(self.grid.shape[0]):
            lines.append("".join(symbols[CellType(int(c))] for c in self.grid[row]))
        return "\n".join(lines)


@lru_cache(maxsize=256)
def generate_layout(
    seed: int,
    size: int = 10,
    obstacle_fraction: float = 0.18,
    name: Optional[str] = None,
) -> GridWorldLayout:
    """Generate a solvable random maze layout from the integer ``seed``.

    Obstacles are re-sampled until a path from source to goal exists, so every
    generated layout is solvable (the paper's mazes always have a reachable
    goal).  The layout is a pure function of the arguments and is memoized:
    repeated calls return the same immutable layout.
    """
    rng = as_rng(operator.index(seed))
    if size < 4:
        raise ValueError(f"grid size must be at least 4, got {size}")
    if not 0.0 <= obstacle_fraction < 0.5:
        raise ValueError(f"obstacle_fraction must be in [0, 0.5), got {obstacle_fraction}")
    for _attempt in range(200):
        grid = np.full((size, size), int(CellType.FREE), dtype=np.int8)
        source = (int(rng.integers(0, size)), int(rng.integers(0, size // 3)))
        goal = (int(rng.integers(0, size)), int(rng.integers(2 * size // 3, size)))
        if source == goal:
            continue
        obstacle_count = int(round(obstacle_fraction * size * size))
        cells = [
            (r, c)
            for r in range(size)
            for c in range(size)
            if (r, c) != source and (r, c) != goal
        ]
        chosen = rng.choice(len(cells), size=obstacle_count, replace=False)
        for index in chosen:
            r, c = cells[int(index)]
            grid[r, c] = int(CellType.HELL)
        grid[source] = int(CellType.SOURCE)
        grid[goal] = int(CellType.GOAL)
        layout = GridWorldLayout(
            grid=grid, source=source, goal=goal, name=name or f"layout-{seed}"
        )
        if _path_exists(layout):
            return layout
    raise RuntimeError(f"failed to generate a solvable layout for seed {seed}")


def _path_exists(layout: GridWorldLayout) -> bool:
    """Breadth-first reachability from source to goal avoiding hell cells."""
    rows, cols = layout.shape
    visited = np.zeros((rows, cols), dtype=bool)
    frontier = [layout.source]
    visited[layout.source] = True
    while frontier:
        row, col = frontier.pop()
        if (row, col) == layout.goal:
            return True
        for d_row, d_col in ACTIONS:
            nxt = (row + d_row, col + d_col)
            if not (0 <= nxt[0] < rows and 0 <= nxt[1] < cols):
                continue
            if visited[nxt] or layout.cell(*nxt) == CellType.HELL:
                continue
            visited[nxt] = True
            frontier.append(nxt)
    return False


def default_gridworld_layouts(count: int = 12, size: int = 10) -> List[GridWorldLayout]:
    """The 12 canonical environment layouts used throughout the reproduction."""
    return [generate_layout(seed=1000 + index, size=size, name=f"env-{index}") for index in range(count)]


class GridWorldEnv(Environment):
    """Episodic grid navigation environment over one :class:`GridWorldLayout`.

    Two observation modes are supported:

    * ``"local"`` — the paper's 4-element neighbourhood encoding
      (|S| = 3^4 = 81).  A memoryless policy over this observation cannot
      locate an arbitrary goal cell, so it is kept for faithfulness studies.
    * ``"goal_direction"`` (default) — the neighbourhood encoding extended
      with the sign of the row/column offset to the goal (2 extra elements in
      {-1, 0, 1}, |S| = 3^6).  This keeps the policy a small quantized MLP —
      the property the fault analysis depends on — while making the
      navigation task solvable by a memoryless policy (see DESIGN.md §2).
    """

    action_count = len(ACTIONS)

    # Reward constants from the paper.
    REWARD_CRASH = -1.0
    REWARD_GOAL = 1.0
    REWARD_CLOSER = 0.1
    REWARD_FARTHER = -0.1

    OBSERVATION_MODES = ("local", "goal_direction")

    def __init__(
        self,
        layout: GridWorldLayout,
        max_steps: int = 100,
        observation_mode: str = "goal_direction",
    ) -> None:
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        self._observations = layout.observation_table(observation_mode)
        self.layout = layout
        self.max_steps = max_steps
        self.observation_mode = observation_mode
        self.observation_shape = self._observations.shape[2:]
        self._cells = layout.bordered_cells
        self._successors = layout.successors
        self._source_cell = layout.source[0] * layout.shape[1] + layout.source[1]
        self._position: Tuple[int, int] = layout.source
        self._steps = 0
        self._done = True  # requires reset() before stepping

    @property
    def position(self) -> Tuple[int, int]:
        """The agent's current (row, column) cell."""
        return self._position

    def reset(self) -> np.ndarray:
        """Put the agent back on the source cell and start a new episode."""
        self._position = self.layout.source
        self._steps = 0
        self._done = False
        return self.observe()

    def observe(self, position: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Observation around ``position`` (the agent's cell by default).

        The first four elements are the neighbourhood encoding ordered
        (up, down, right, left) to match the action encoding; values are -1
        for hell/out-of-bounds, +1 for goal, 0 for free/source.  In
        ``goal_direction`` mode two extra elements give the sign of the
        row/column offset from the agent to the goal.  The result is a
        read-only row of the layout's :meth:`GridWorldLayout.observation_table`;
        a position off the grid raises ``ValueError``.
        """
        row, col = self._position if position is None else position
        rows, cols = self.layout.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise ValueError(f"position {(row, col)} lies outside the {rows}x{cols} grid")
        return self._observations[row, col]

    def _distance_to_goal(self, position: Tuple[int, int]) -> int:
        return abs(position[0] - self.layout.goal[0]) + abs(position[1] - self.layout.goal[1])

    def step(self, action: int) -> StepResult:
        """Move one cell in the action's direction; reward per the cell type.

        A crash ends the episode with the agent left on its previous cell.
        """
        if self._done:
            raise RuntimeError("step called on a finished episode; call reset() first")
        action = self.validate_action(action)
        d_row, d_col = ACTIONS[action]
        previous = self._position
        candidate = (previous[0] + d_row, previous[1] + d_col)
        cell = self._cells[candidate[0] + 1, candidate[1] + 1]
        self._steps += 1
        info = {"position": candidate, "steps": self._steps, "action": ACTION_NAMES[action]}
        if cell == _HELL:
            self._done = True
            info["outcome"] = "crash"
            return StepResult(self._observations[previous], self.REWARD_CRASH, True, info)
        self._position = candidate
        observation = self._observations[candidate]
        if cell == _GOAL:
            self._done = True
            info["outcome"] = "goal"
            return StepResult(observation, self.REWARD_GOAL, True, info)
        reward = (
            self.REWARD_CLOSER
            if self._distance_to_goal(candidate) < self._distance_to_goal(previous)
            else self.REWARD_FARTHER
        )
        if self._steps >= self.max_steps:
            self._done = True
            info["outcome"] = "timeout"
            return StepResult(observation, reward, True, info)
        info["outcome"] = "move"
        return StepResult(observation, reward, False, info)

    def walk(
        self,
        actions: Sequence[int],
        epsilon: float,
        rng: np.random.Generator,
        fault_step: Optional[int] = None,
        fault_actions: Optional[Sequence[int]] = None,
    ) -> bool:
        """Run one greedy episode from the source; return whether it reached the goal.

        ``actions`` holds the action of every flat cell ``row * cols + col``
        as a plain int.  Each step draws as ``rl.rollout.greedy_episode``
        does: ``rng.random()`` when ``epsilon`` is positive and, when that
        draw is below ``epsilon``, a uniform action from ``rng.integers``.
        Otherwise step ``fault_step`` takes ``fault_actions[cell]`` and every
        other step ``actions[cell]``.  The episode follows
        :attr:`GridWorldLayout.successors`; a crash or ``max_steps`` steps
        without the goal return ``False``.  The walk builds no step results
        and neither reads nor changes this environment's episode state.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        successors = self._successors
        cell = self._source_cell
        for step in range(self.max_steps):
            if epsilon > 0.0 and rng.random() < epsilon:
                action = int(rng.integers(0, self.action_count))
            elif step == fault_step:
                action = fault_actions[cell]
            else:
                action = actions[cell]
            cell = successors[4 * cell + action]
            if cell < 0:
                return cell == GOAL_CODE
        return False


class GridWorldVecEnv:
    """Lockstep batch of :class:`GridWorldEnv` lanes with masked termination.

    Each lane steps its own environment with :meth:`GridWorldEnv.step`, so
    its results are the serial ones by construction.  Finished lanes freeze
    until the next :meth:`reset_batch`.  Building the batch neither resets
    nor steps a lane.
    """

    action_count = len(ACTIONS)

    def __init__(self, envs: List["GridWorldEnv"]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("GridWorldVecEnv needs at least one lane")
        for env in envs:
            if not isinstance(env, GridWorldEnv):
                raise TypeError(f"expected GridWorldEnv lanes, got {type(env).__name__}")
            if env.max_steps != envs[0].max_steps:
                raise ValueError("all lanes must share max_steps")
            if env.observation_mode != envs[0].observation_mode:
                raise ValueError("all lanes must share observation_mode")
            if env.layout.shape != envs[0].layout.shape:
                raise ValueError("all lanes must share the grid shape")
        self.envs = envs
        self.lane_count = len(envs)
        self._done = np.ones(self.lane_count, dtype=bool)
        self._observations = np.zeros((self.lane_count,) + envs[0].observation_shape)

    @property
    def done(self) -> np.ndarray:
        """Copy of the per-lane episode-finished flags."""
        return self._done.copy()

    @property
    def observations(self) -> np.ndarray:
        """The full per-lane observation stack (stale rows for done lanes)."""
        return self._observations

    @property
    def positions(self) -> np.ndarray:
        """The per-lane (row, col) agent positions."""
        return np.array([env.position for env in self.envs], dtype=np.int64)

    def reset_batch(self) -> np.ndarray:
        """Reset every lane and return the observation stack."""
        for lane, env in enumerate(self.envs):
            self._observations[lane] = env.reset()
        self._done[:] = False
        return self._observations

    def step_batch(self, actions: np.ndarray) -> VecStepResult:
        """Advance every unfinished lane by one step (finished lanes freeze)."""
        active = np.flatnonzero(~self._done)
        if active.size == 0:
            raise RuntimeError(
                "step_batch called with every lane finished; call reset_batch() first"
            )
        act = np.asarray(actions, dtype=np.int64)[active]
        if act.min() < 0 or act.max() >= self.action_count:
            raise ValueError(f"action outside the action space of size {self.action_count}")
        rewards = np.zeros(self.lane_count)
        stepped = np.zeros(self.lane_count, dtype=bool)
        outcomes: List[Optional[str]] = [None] * self.lane_count
        for lane, action in zip(active, act):
            result = self.envs[lane].step(int(action))
            self._observations[lane] = result.observation
            rewards[lane] = result.reward
            self._done[lane] = result.done
            stepped[lane] = True
            outcomes[lane] = result.info["outcome"]
        return VecStepResult(
            observations=self._observations,
            rewards=rewards,
            done=self._done.copy(),
            stepped=stepped,
            outcomes=outcomes,
        )


def make_gridworld_suite(
    agent_count: int = 12,
    size: int = 10,
    max_steps: int = 100,
    observation_mode: str = "goal_direction",
) -> List[GridWorldEnv]:
    """One GridWorld environment per agent, using the canonical layouts."""
    layouts = default_gridworld_layouts(count=agent_count, size=size)
    return [
        GridWorldEnv(layout, max_steps=max_steps, observation_mode=observation_mode)
        for layout in layouts
    ]


def enumerate_observations(observation_size: int = 4) -> np.ndarray:
    """All 3^N possible observations (used for consensus-policy statistics).

    ``observation_size=4`` enumerates the paper's 81 local states;
    ``observation_size=6`` covers the goal-direction extension (729 states).
    """
    if observation_size <= 0:
        raise ValueError(f"observation_size must be positive, got {observation_size}")
    values = (-1.0, 0.0, 1.0)
    grids = np.meshgrid(*([np.asarray(values)] * observation_size), indexing="ij")
    return np.stack([grid.reshape(-1) for grid in grids], axis=1)
