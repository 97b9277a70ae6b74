"""DroneNav: the paper's large-scale drone navigation workload.

The paper uses the PEDRA platform (Unreal Engine + AirSim) in which a drone
flies through 3D photo-realistic environments, observing 320×180 RGB frames
and choosing among 25 perception-based actions; a depth-based reward keeps it
away from obstacles and the metric is the *safe flight distance* — the average
distance flown before a collision.

That stack is not available offline, so this module implements the closest
synthetic equivalent that exercises the same code paths:

* a 2.5D corridor world populated with cylindrical obstacles,
* a ray-cast front-facing depth camera whose readings are expanded into a
  small multi-channel image (so the policy remains a CNN over camera frames),
* a 25-element action space formed by 5 yaw changes × 5 speed factors,
* a depth-shaped reward that rewards keeping clear space ahead and penalizes
  collisions, and
* episode termination on collision with the safe flight distance as the
  headline metric.

The substitution preserves the sequential decision process, the CNN policy
topology, the reward shaping and the collision-terminated metric the paper's
fault analysis depends on (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.envs.base import Environment, StepResult, VecStepResult
from repro.utils.rng import as_rng

# 25-action space: 5 yaw deltas (degrees) x 5 speed factors.
YAW_DELTAS_DEG: Tuple[float, ...] = (-30.0, -15.0, 0.0, 15.0, 30.0)
SPEED_FACTORS: Tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)


def decode_action(action: int) -> Tuple[float, float]:
    """Map an action index to (yaw delta in radians, speed factor)."""
    if not 0 <= action < len(YAW_DELTAS_DEG) * len(SPEED_FACTORS):
        raise ValueError(f"action {action} outside the 25-element action space")
    yaw_index, speed_index = divmod(action, len(SPEED_FACTORS))
    return np.deg2rad(YAW_DELTAS_DEG[yaw_index]), SPEED_FACTORS[speed_index]


# ------------------------------------------------------------------ kernels
# The physics below works on rows: row ``i`` is one drone at ``positions[i]``
# (shape ``(rows, 2)``) in its own world, given by ``half_widths[i]``,
# ``obstacles[i]`` (shape ``(rows, obstacles, 2)``) and
# ``obstacle_radii[i]``.  ``DroneNavVecEnv`` passes the rows of its live
# lanes; ``DroneWorld`` and ``DroneNavEnv`` pass one row.  Every op is
# elementwise or row-wise, so a row's result does not depend on the others.


def cast_rays(
    positions: np.ndarray,
    headings: np.ndarray,
    angles: np.ndarray,
    max_range: float,
    half_widths: np.ndarray,
    obstacles: np.ndarray,
    obstacle_radii: np.ndarray,
) -> np.ndarray:
    """``(rows, rays)`` distances to the nearest wall or obstacle, capped at ``max_range``.

    ``angles`` are ray offsets (radians) from each row's heading.
    """
    directions = np.stack(
        [
            np.cos(headings[:, None] + angles[None, :]),
            np.sin(headings[:, None] + angles[None, :]),
        ],
        axis=2,
    )  # (rows, rays, 2)
    depths = np.full((positions.shape[0], angles.shape[0]), max_range)
    # Wall intersections: y + t * dy = ±half_width  ->  t = (±hw - y) / dy.
    dy = directions[:, :, 1]
    y = positions[:, 1][:, None]
    half_width = half_widths[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_top = np.where(dy > 1e-12, (half_width - y) / dy, np.inf)
        t_bottom = np.where(dy < -1e-12, (-half_width - y) / dy, np.inf)
    wall_t = np.minimum(t_top, t_bottom)
    depths = np.minimum(depths, np.clip(wall_t, 0.0, max_range))
    if obstacles.shape[1]:
        # Circle intersection per ray: solve |p + t*d - c|^2 = r^2.
        rel = obstacles - positions[:, None, :]  # (rows, obstacles, 2)
        d = directions[:, :, None, :]  # (rows, rays, 1, 2)
        b = np.sum(d * rel[:, None, :, :], axis=3)  # (rows, rays, obstacles)
        c = np.sum(rel * rel, axis=2)[:, None, :] - obstacle_radii[:, None, None] ** 2
        disc = b * b - c
        hit = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
        t_obstacle = np.where(hit, b - sqrt_disc, np.inf)
        t_obstacle = np.where(t_obstacle >= 0.0, t_obstacle, np.inf)
        nearest = t_obstacle.min(axis=2)
        depths = np.minimum(depths, np.clip(nearest, 0.0, max_range))
    return depths


def collisions(
    positions: np.ndarray,
    drone_radius: float,
    half_widths: np.ndarray,
    obstacles: np.ndarray,
    obstacle_radii: np.ndarray,
) -> np.ndarray:
    """``(rows,)`` flags: the drone of each row hits a wall or an obstacle."""
    crashed = np.abs(positions[:, 1]) > half_widths - drone_radius
    if obstacles.shape[1]:
        gaps = np.hypot(
            obstacles[:, :, 0] - positions[:, 0:1],
            obstacles[:, :, 1] - positions[:, 1:2],
        )
        thresholds = (obstacle_radii + drone_radius)[:, None]
        crashed = crashed | (gaps < thresholds).any(axis=1)
    return crashed


def camera_frames(
    positions: np.ndarray,
    depths: np.ndarray,
    half_widths: np.ndarray,
    config: "DroneNavConfig",
) -> np.ndarray:
    """``(rows, 3, H, W)`` camera frames expanded from each row's ray depths.

    Channel 0 encodes normalized depth per image column (tiled vertically
    with a mild vertical falloff, mimicking ground/sky structure), channel 1
    encodes obstacle proximity (inverted depth) and channel 2 encodes the
    lateral position of the drone within the corridor, giving the CNN the
    same kind of spatial cues an RGB render would provide.
    """
    normalized = depths / config.max_range  # (rows, W)
    vertical = np.linspace(1.0, 0.6, config.image_height).reshape(-1, 1)  # (H, 1)
    depth_plane = vertical * normalized[:, None, :]
    proximity_plane = vertical * (1.0 - normalized)[:, None, :]
    lateral = (positions[:, 1] + half_widths) / (2 * half_widths)
    lateral_plane = np.broadcast_to(
        lateral[:, None, None],
        (positions.shape[0], config.image_height, config.image_width),
    )
    return np.stack([depth_plane, proximity_plane, lateral_plane], axis=1).astype(np.float64)


def depth_rewards(
    depths: np.ndarray, forward: np.ndarray, config: "DroneNavConfig"
) -> np.ndarray:
    """``(rows,)`` rewards of a step that did not crash.

    Stay away from obstacles (mean depth over the central third of the field
    of view), with a small bonus for the ``forward`` (+x) displacement along
    the corridor.
    """
    width = config.image_width
    lo = width // 3
    clearance = depths[:, lo : width - lo].mean(axis=1) / config.max_range
    progress = forward / (config.base_speed * max(SPEED_FACTORS))
    return clearance - 0.5 + 0.2 * progress


@dataclass
class DroneWorld:
    """A corridor world with cylindrical obstacles.

    The corridor runs along +x from 0 to ``length`` with walls at
    ``y = ±half_width``.  Obstacles are circles of radius ``obstacle_radius``.
    """

    length: float = 900.0
    half_width: float = 25.0
    obstacle_radius: float = 2.5
    obstacles: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    name: str = "world"

    def __post_init__(self) -> None:
        self.obstacles = np.asarray(self.obstacles, dtype=np.float64).reshape(-1, 2)
        if self.length <= 0 or self.half_width <= 0 or self.obstacle_radius <= 0:
            raise ValueError("world dimensions must be positive")

    def collides(self, position: np.ndarray, drone_radius: float) -> bool:
        """True if the drone at ``position`` hits an obstacle or a wall."""
        position = np.asarray(position, dtype=np.float64).reshape(1, 2)
        return bool(
            collisions(
                position,
                drone_radius,
                np.array([self.half_width]),
                self.obstacles[None],
                np.array([self.obstacle_radius]),
            )[0]
        )

    def ray_depths(
        self,
        position: np.ndarray,
        heading: float,
        angles: np.ndarray,
        max_range: float,
    ) -> np.ndarray:
        """Distance to the nearest obstruction along each ray.

        ``angles`` are offsets (radians) from ``heading``.  Rays hit either a
        cylindrical obstacle or one of the corridor walls; readings are capped
        at ``max_range``.  One row of :func:`cast_rays`.
        """
        position = np.asarray(position, dtype=np.float64).reshape(1, 2)
        return cast_rays(
            position,
            np.array([heading], dtype=np.float64),
            angles,
            max_range,
            np.array([self.half_width]),
            self.obstacles[None],
            np.array([self.obstacle_radius]),
        )[0]


def generate_world(
    seed: int,
    length: float = 900.0,
    half_width: float = 25.0,
    obstacle_density: float = 0.0015,
    obstacle_radius: float = 2.5,
    keepout: float = 12.0,
    name: Optional[str] = None,
) -> DroneWorld:
    """Generate a corridor world with randomly placed obstacles.

    ``obstacle_density`` is obstacles per square metre of corridor area.  A
    keep-out region around the start pose guarantees the drone never spawns in
    contact with an obstacle.
    """
    rng = as_rng(seed)
    area = length * 2 * half_width
    count = int(round(obstacle_density * area))
    xs = rng.uniform(keepout, length, size=count)
    ys = rng.uniform(-half_width + obstacle_radius, half_width - obstacle_radius, size=count)
    obstacles = np.stack([xs, ys], axis=1)
    return DroneWorld(
        length=length,
        half_width=half_width,
        obstacle_radius=obstacle_radius,
        obstacles=obstacles,
        name=name or f"world-{seed}",
    )


def default_drone_worlds(count: int = 4, **kwargs) -> List[DroneWorld]:
    """The canonical per-drone worlds used throughout the reproduction."""
    return [generate_world(seed=2000 + index, name=f"drone-env-{index}", **kwargs) for index in range(count)]


@dataclass(frozen=True)
class DroneNavConfig:
    """Tunable parameters of the drone navigation environment."""

    image_width: int = 32
    image_height: int = 18
    field_of_view_deg: float = 90.0
    max_range: float = 40.0
    base_speed: float = 2.0
    drone_radius: float = 1.0
    max_steps: int = 400
    crash_penalty: float = -10.0

    def __post_init__(self) -> None:
        if self.image_width <= 1 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive (width > 1)")
        if not 0.0 < self.field_of_view_deg <= 180.0:
            raise ValueError("field of view must be in (0, 180] degrees")
        if self.max_range <= 0 or self.base_speed <= 0 or self.drone_radius <= 0:
            raise ValueError("ranges, speeds and radii must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


class DroneNavEnv(Environment):
    """Corridor-flight environment with a ray-cast camera observation."""

    action_count = len(YAW_DELTAS_DEG) * len(SPEED_FACTORS)

    def __init__(self, world: DroneWorld, config: Optional[DroneNavConfig] = None) -> None:
        self.world = world
        self.config = config or DroneNavConfig()
        self.observation_shape = (3, self.config.image_height, self.config.image_width)
        half_fov = np.deg2rad(self.config.field_of_view_deg) / 2.0
        self._ray_angles = np.linspace(-half_fov, half_fov, self.config.image_width)
        self._position = np.zeros(2)
        self._heading = 0.0
        self._steps = 0
        self._distance = 0.0
        self._done = True

    @property
    def flight_distance(self) -> float:
        """Distance flown so far in the current episode (metres)."""
        return self._distance

    @property
    def position(self) -> np.ndarray:
        """The drone's current (x, y) position as a copy."""
        return self._position.copy()

    @property
    def heading(self) -> float:
        """The drone's current heading in radians (0 = down-corridor)."""
        return self._heading

    def reset(self) -> np.ndarray:
        """Return the drone to the corridor origin and start a new episode."""
        self._position = np.array([0.0, 0.0])
        self._heading = 0.0
        self._steps = 0
        self._distance = 0.0
        self._done = False
        return self.observe()

    def observe(self) -> np.ndarray:
        """The (3, H, W) camera frame at the drone's pose (see :func:`camera_frames`)."""
        return self._look()[1]

    def _look(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ray depths at the drone's pose and the camera frame built from them."""
        depths = self.world.ray_depths(
            self._position, self._heading, self._ray_angles, self.config.max_range
        )
        frame = camera_frames(
            self._position[None], depths[None], np.array([self.world.half_width]), self.config
        )[0]
        return depths, frame

    def step(self, action: int) -> StepResult:
        """Apply one (speed, steering) action; crash/survive per the ray-cast.

        One ray cast at the post-move pose serves the camera frame and the
        clearance reward.
        """
        if self._done:
            raise RuntimeError("step called on a finished episode; call reset() first")
        action = self.validate_action(action)
        config = self.config
        yaw_delta, speed_factor = decode_action(action)
        self._heading = float(np.clip(self._heading + yaw_delta, -np.pi / 2, np.pi / 2))
        speed = config.base_speed * speed_factor
        displacement = speed * np.array([np.cos(self._heading), np.sin(self._heading)])
        self._position = self._position + displacement
        self._steps += 1
        travelled = float(np.hypot(*displacement))
        info = {
            "position": self._position.copy(),
            "heading": self._heading,
            "steps": self._steps,
            "flight_distance": self._distance,
        }
        crashed = self.world.collides(self._position, config.drone_radius)
        depths, observation = self._look()
        if crashed:
            self._done = True
            info["outcome"] = "crash"
            return StepResult(observation, config.crash_penalty, True, info)
        self._distance += travelled
        info["flight_distance"] = self._distance
        reward = depth_rewards(depths[None], displacement[:1], config)[0]
        if self._steps >= config.max_steps or self._position[0] >= self.world.length:
            self._done = True
            info["outcome"] = "survived"
            return StepResult(observation, reward, True, info)
        info["outcome"] = "fly"
        return StepResult(observation, reward, False, info)


#: Obstacle coordinate used to pad lanes with fewer obstacles than the widest
#: lane.  Far enough that a padded "obstacle" can never collide or shadow a
#: real ray hit (its intersection parameter is ~1e9, clipped to ``max_range``
#: where it ties with the no-obstacle depth bitwise), small enough that the
#: quadratic ray test (~1e18) stays comfortably inside float64.
_FAR_OBSTACLE = 1.0e9

#: Precomputed per-action lookups; ``deg2rad``/float conversion is elementwise,
#: so ``_YAW_RAD[a]`` is bitwise equal to ``decode_action(a)[0]``.
_YAW_RAD = np.deg2rad(np.asarray(YAW_DELTAS_DEG, dtype=np.float64))
_SPEED = np.asarray(SPEED_FACTORS, dtype=np.float64)


class DroneNavVecEnv:
    """Lockstep batch of :class:`DroneNavEnv` lanes with masked termination.

    Each lane mirrors one serial environment *bitwise*: both run the same
    row kernels (:func:`cast_rays`, :func:`collisions`, :func:`camera_frames`,
    :func:`depth_rewards`), here on the rows of the lanes that are still
    running (finished lanes are frozen by mask, never recomputed), and the
    heading/displacement arithmetic is the elementwise image of
    :meth:`DroneNavEnv.step`.  Lanes may share a :class:`DroneWorld` object
    (worlds are read-only), which is how evaluation runs several attempts of
    one environment in parallel.
    """

    action_count = len(YAW_DELTAS_DEG) * len(SPEED_FACTORS)

    def __init__(self, envs: List["DroneNavEnv"]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("DroneNavVecEnv needs at least one lane")
        for env in envs:
            if not isinstance(env, DroneNavEnv):
                raise TypeError(f"expected DroneNavEnv lanes, got {type(env).__name__}")
            if env.config != envs[0].config:
                raise ValueError("all lanes must share one DroneNavConfig")
        self.envs = envs
        self.config = envs[0].config
        self.lane_count = len(envs)
        self.observation_shape = envs[0].observation_shape
        self._ray_angles = envs[0]._ray_angles
        self._lengths = np.array([env.world.length for env in envs], dtype=np.float64)
        self._half_widths = np.array(
            [env.world.half_width for env in envs], dtype=np.float64
        )
        self._obstacle_radii = np.array(
            [env.world.obstacle_radius for env in envs], dtype=np.float64
        )
        counts = [env.world.obstacles.shape[0] for env in envs]
        self._obstacles = np.full((self.lane_count, max(counts), 2), _FAR_OBSTACLE)
        for lane, env in enumerate(envs):
            self._obstacles[lane, : counts[lane]] = env.world.obstacles
        self._positions = np.zeros((self.lane_count, 2))
        self._headings = np.zeros(self.lane_count)
        self._steps = np.zeros(self.lane_count, dtype=np.int64)
        self._distances = np.zeros(self.lane_count)
        self._done = np.ones(self.lane_count, dtype=bool)
        self._observations = np.zeros((self.lane_count,) + self.observation_shape)

    @property
    def done(self) -> np.ndarray:
        """Copy of the per-lane episode-finished flags."""
        return self._done.copy()

    @property
    def observations(self) -> np.ndarray:
        """The full per-lane observation stack (stale rows for done lanes)."""
        return self._observations

    @property
    def flight_distances(self) -> np.ndarray:
        """Copy of the per-lane flight distances (the paper's metric)."""
        return self._distances.copy()

    @property
    def steps(self) -> np.ndarray:
        """Copy of the per-lane step counters."""
        return self._steps.copy()

    @property
    def positions(self) -> np.ndarray:
        """Copy of the per-lane drone positions."""
        return self._positions.copy()

    @property
    def headings(self) -> np.ndarray:
        """Copy of the per-lane drone headings."""
        return self._headings.copy()

    def reset_batch(self, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """Reset all lanes (or just ``lanes``) and return the observation stack."""
        if lanes is None:
            lanes = np.arange(self.lane_count)
        else:
            lanes = np.asarray(lanes, dtype=np.int64)
        self._positions[lanes] = 0.0
        self._headings[lanes] = 0.0
        self._steps[lanes] = 0
        self._distances[lanes] = 0.0
        self._done[lanes] = False
        positions = self._positions[lanes]
        depths = cast_rays(
            positions,
            self._headings[lanes],
            self._ray_angles,
            self.config.max_range,
            self._half_widths[lanes],
            self._obstacles[lanes],
            self._obstacle_radii[lanes],
        )
        self._observations[lanes] = camera_frames(
            positions, depths, self._half_widths[lanes], self.config
        )
        return self._observations

    def step_batch(self, actions: np.ndarray) -> VecStepResult:
        """Advance every unfinished lane by one step (finished lanes freeze).

        ``actions`` is a full-length ``(lanes,)`` integer array; entries for
        finished lanes are ignored.
        """
        active = np.flatnonzero(~self._done)
        if active.size == 0:
            raise RuntimeError(
                "step_batch called with every lane finished; call reset_batch() first"
            )
        config = self.config
        act = np.asarray(actions, dtype=np.int64)[active]
        if act.min() < 0 or act.max() >= self.action_count:
            raise ValueError("action outside the 25-element action space")
        yaw_delta = _YAW_RAD[act // len(SPEED_FACTORS)]
        speed_factor = _SPEED[act % len(SPEED_FACTORS)]
        heading = np.clip(self._headings[active] + yaw_delta, -np.pi / 2, np.pi / 2)
        speed = config.base_speed * speed_factor
        displacement = speed[:, None] * np.stack(
            [np.cos(heading), np.sin(heading)], axis=1
        )
        position = self._positions[active] + displacement
        steps = self._steps[active] + 1
        travelled = np.hypot(displacement[:, 0], displacement[:, 1])

        half_widths = self._half_widths[active]
        obstacles = self._obstacles[active]
        radii = self._obstacle_radii[active]
        crashed = collisions(position, config.drone_radius, half_widths, obstacles, radii)
        self._headings[active] = heading
        self._positions[active] = position
        self._steps[active] = steps
        flying = ~crashed
        self._distances[active[flying]] += travelled[flying]

        depths = cast_rays(
            position, heading, self._ray_angles, config.max_range, half_widths, obstacles, radii
        )
        reward = depth_rewards(depths, displacement[:, 0], config)
        reward[crashed] = config.crash_penalty
        survived = (steps >= config.max_steps) | (position[:, 0] >= self._lengths[active])
        finished = crashed | survived
        self._done[active] = finished
        self._observations[active] = camera_frames(position, depths, half_widths, config)

        rewards = np.zeros(self.lane_count)
        rewards[active] = reward
        stepped = np.zeros(self.lane_count, dtype=bool)
        stepped[active] = True
        outcomes: List[Optional[str]] = [None] * self.lane_count
        for row, lane in enumerate(active):
            if crashed[row]:
                outcomes[lane] = "crash"
            elif survived[row]:
                outcomes[lane] = "survived"
            else:
                outcomes[lane] = "fly"
        return VecStepResult(
            observations=self._observations,
            rewards=rewards,
            done=self._done.copy(),
            stepped=stepped,
            outcomes=outcomes,
        )


def make_dronenav_suite(
    drone_count: int = 4,
    config: Optional[DroneNavConfig] = None,
    **world_kwargs,
) -> List[DroneNavEnv]:
    """One DroneNav environment per drone, each over its own obstacle world."""
    worlds = default_drone_worlds(count=drone_count, **world_kwargs)
    return [DroneNavEnv(world, config=config) for world in worlds]
