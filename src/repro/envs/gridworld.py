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
from functools import lru_cache
from typing import List, Optional, Tuple

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


@dataclass(frozen=True)
class GridWorldLayout:
    """An immutable maze description.

    The layout keeps a read-only copy of ``grid``, so environments may build
    their lookup tables from it once.
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
        if observation_mode not in self.OBSERVATION_MODES:
            raise ValueError(
                f"observation_mode must be one of {self.OBSERVATION_MODES}, got {observation_mode!r}"
            )
        self.layout = layout
        self.max_steps = max_steps
        self.observation_mode = observation_mode
        self.observation_shape = (4,) if observation_mode == "local" else (6,)
        self._cells, self._observations = _lookup_tables(layout, observation_mode)
        self._position: Tuple[int, int] = layout.source
        self._steps = 0
        self._done = True  # requires reset() before stepping

    @property
    def position(self) -> Tuple[int, int]:
        """The agent's current (row, column) cell."""
        return self._position

    @property
    def observation_table(self) -> np.ndarray:
        """Read-only ``(rows, cols, *observation_shape)`` table of every cell's observation."""
        return self._observations

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
        read-only row of :attr:`observation_table`; a position off the grid
        raises ``ValueError``.
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


def _lookup_tables(layout: GridWorldLayout, observation_mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """The layout's cells inside a one-cell HELL border, and every cell's observation.

    The border turns "out of bounds is hell" into a plain lookup: cell
    ``(row, col)`` sits at ``cells[row + 1, col + 1]``.  Observations hold
    exact small constants (-1, 0, +1), so the table is the same bytes
    however it is computed.  Both tables are read-only.
    """
    rows, cols = layout.shape
    cells = np.full((rows + 2, cols + 2), _HELL, dtype=np.int64)
    cells[1:-1, 1:-1] = layout.grid
    neighbours = np.stack(
        [
            cells[1 + d_row : rows + 1 + d_row, 1 + d_col : cols + 1 + d_col]
            for d_row, d_col in ACTIONS
        ],
        axis=-1,
    )
    columns = [np.where(neighbours == _HELL, -1.0, np.where(neighbours == _GOAL, 1.0, 0.0))]
    if observation_mode == "goal_direction":
        goal_row, goal_col = layout.goal
        offsets = np.broadcast_arrays(
            np.sign(goal_row - np.arange(rows))[:, None],
            np.sign(goal_col - np.arange(cols))[None, :],
        )
        columns.append(np.stack(offsets, axis=-1).astype(np.float64))
    observations = np.concatenate(columns, axis=-1)
    cells.setflags(write=False)
    observations.setflags(write=False)
    return cells, observations


class GridWorldVecEnv:
    """Lockstep batch of :class:`GridWorldEnv` lanes with masked termination.

    Each lane steps its own environment with :meth:`GridWorldEnv.step`, so
    its results are the serial ones by construction.  Finished lanes freeze
    until :meth:`reset_batch` revives them (evaluation runs attempts back to
    back per lane this way).  Building the batch neither resets nor steps a
    lane.
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

    def reset_batch(self, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """Reset all lanes (or just ``lanes``) and return the observation stack."""
        lanes = range(self.lane_count) if lanes is None else np.asarray(lanes, dtype=np.int64)
        for lane in lanes:
            self._observations[lane] = self.envs[lane].reset()
            self._done[lane] = False
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
