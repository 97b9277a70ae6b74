"""Byte oracle for the row-shaped drone kernels.

``DroneWorld.ray_depths``/``collides`` and ``DroneNavEnv.observe``/``step``
run the same row kernels as ``DroneNavVecEnv`` (``cast_rays``,
``collisions``, ``camera_frames``, ``depth_rewards``) with one row, and a
step casts its rays once at the post-move pose.  The reference below keeps
the scalar code they replaced, which cast twice per step, and every test
compares observation bytes, reward value and type, ``done`` and every
``info`` entry against it.
"""

import numpy as np
import pytest

from repro.envs import DroneNavConfig, DroneNavEnv, DroneWorld
from repro.envs.dronenav import SPEED_FACTORS, decode_action, generate_world

SMALL = DroneNavConfig(image_width=8, image_height=8, max_steps=30)
DEFAULT = DroneNavConfig()

WORLDS = {
    "empty": DroneWorld(length=200.0, half_width=25.0),
    "sparse": generate_world(seed=3, length=120.0),
    "dense": generate_world(seed=4, length=120.0, obstacle_density=0.01),
    "narrow": generate_world(seed=5, length=120.0, half_width=6.0, obstacle_density=0.004),
    "default": generate_world(seed=2000),
}

#: Action 14 flies straight at top speed; 0 and 20 turn hard at low speed.
STRAIGHT, HARD_RIGHT, HARD_LEFT = 14, 0, 20


def reference_collides(world, position, drone_radius):
    x, y = float(position[0]), float(position[1])
    if abs(y) > world.half_width - drone_radius:
        return True
    if world.obstacles.size == 0:
        return False
    distances = np.hypot(world.obstacles[:, 0] - x, world.obstacles[:, 1] - y)
    return bool((distances < world.obstacle_radius + drone_radius).any())


def reference_ray_depths(world, position, heading, angles, max_range):
    x, y = float(position[0]), float(position[1])
    directions = np.stack([np.cos(heading + angles), np.sin(heading + angles)], axis=1)
    depths = np.full(angles.shape[0], max_range, dtype=np.float64)
    dy = directions[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_top = np.where(dy > 1e-12, (world.half_width - y) / dy, np.inf)
        t_bottom = np.where(dy < -1e-12, (-world.half_width - y) / dy, np.inf)
    wall_t = np.minimum(t_top, t_bottom)
    depths = np.minimum(depths, np.clip(wall_t, 0.0, max_range))
    if world.obstacles.size:
        rel = world.obstacles[None, :, :] - np.array([[x, y]])[:, None, :]
        d = directions[:, None, :]
        b = np.sum(d * rel, axis=2)
        c = np.sum(rel * rel, axis=2) - world.obstacle_radius**2
        disc = b * b - c
        hit = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
        t_obstacle = np.where(hit, b - sqrt_disc, np.inf)
        t_obstacle = np.where(t_obstacle >= 0.0, t_obstacle, np.inf)
        nearest = t_obstacle.min(axis=1)
        depths = np.minimum(depths, np.clip(nearest, 0.0, max_range))
    return depths


class ReferenceDroneNav:
    """The scalar drone step that cast its rays twice per non-crashing step."""

    def __init__(self, world, config):
        self.world = world
        self.config = config
        half_fov = np.deg2rad(config.field_of_view_deg) / 2.0
        self.ray_angles = np.linspace(-half_fov, half_fov, config.image_width)

    def reset(self):
        self.position = np.array([0.0, 0.0])
        self.heading = 0.0
        self.steps = 0
        self.distance = 0.0
        return self.observe()

    def observe(self):
        config = self.config
        depths = reference_ray_depths(
            self.world, self.position, self.heading, self.ray_angles, config.max_range
        )
        normalized = depths / config.max_range
        vertical = np.linspace(1.0, 0.6, config.image_height).reshape(-1, 1)
        depth_plane = vertical * normalized[None, :]
        proximity_plane = vertical * (1.0 - normalized)[None, :]
        lateral = (self.position[1] + self.world.half_width) / (2 * self.world.half_width)
        lateral_plane = np.full((config.image_height, config.image_width), lateral)
        return np.stack([depth_plane, proximity_plane, lateral_plane]).astype(np.float64)

    def step(self, action):
        config = self.config
        yaw_delta, speed_factor = decode_action(action)
        self.heading = float(np.clip(self.heading + yaw_delta, -np.pi / 2, np.pi / 2))
        speed = config.base_speed * speed_factor
        displacement = speed * np.array([np.cos(self.heading), np.sin(self.heading)])
        self.position = self.position + displacement
        self.steps += 1
        travelled = float(np.hypot(*displacement))
        info = {
            "position": self.position.copy(),
            "heading": self.heading,
            "steps": self.steps,
            "flight_distance": self.distance,
        }
        if reference_collides(self.world, self.position, config.drone_radius):
            info["outcome"] = "crash"
            info["flight_distance"] = self.distance
            return self.observe(), config.crash_penalty, True, info
        self.distance += travelled
        info["flight_distance"] = self.distance
        depths = reference_ray_depths(
            self.world, self.position, self.heading, self.ray_angles, config.max_range
        )
        width = depths.shape[0]
        lo = width // 3
        clearance = float(depths[lo : width - lo].mean()) / config.max_range
        progress = displacement[0] / (config.base_speed * max(SPEED_FACTORS))
        reward = clearance - 0.5 + 0.2 * progress
        if self.steps >= config.max_steps or self.position[0] >= self.world.length:
            info["outcome"] = "survived"
            return self.observe(), reward, True, info
        info["outcome"] = "fly"
        return self.observe(), reward, False, info


def assert_same(actual, expected):
    """Arrays equal in dtype, shape and bytes; scalars equal in type and repr."""
    assert type(actual) is type(expected)
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
    else:
        assert repr(actual) == repr(expected)


def outcome_kind(world, config, info):
    """Name the way an episode ended, telling wall and obstacle crashes apart."""
    position = info["position"]
    if info["outcome"] == "crash":
        wall = abs(position[1]) > world.half_width - config.drone_radius
        return "wall crash" if wall else "obstacle crash"
    if info["outcome"] == "survived":
        return "survived by length" if position[0] >= world.length else "survived by max_steps"
    return info["outcome"]


def action_streams():
    """Action-by-step functions: straight, hard turns, zigzag and random draws."""
    yield lambda step: STRAIGHT
    yield lambda step: HARD_RIGHT
    yield lambda step: HARD_LEFT
    yield lambda step: HARD_LEFT if step % 4 < 2 else HARD_RIGHT
    for seed in range(3):
        draws = np.random.default_rng(seed).integers(0, 25, size=DEFAULT.max_steps)
        yield lambda step, draws=draws: int(draws[step])


def random_poses(world, rng, count):
    """Positions inside and outside the corridor; headings include 0 and ±π/2."""
    xs = rng.uniform(-10.0, world.length + 10.0, size=count)
    ys = rng.uniform(-1.5 * world.half_width, 1.5 * world.half_width, size=count)
    headings = rng.uniform(-np.pi, np.pi, size=count)
    headings[:3] = (0.0, np.pi / 2, -np.pi / 2)
    ys[:3] = 0.0
    return np.stack([xs, ys], axis=1), headings


class TestWorldKernel:
    @pytest.mark.parametrize("name", sorted(WORLDS))
    @pytest.mark.parametrize("config", [SMALL, DEFAULT], ids=["small", "default"])
    def test_ray_depths_match_reference(self, name, config):
        world = WORLDS[name]
        angles = DroneNavEnv(world, config)._ray_angles
        positions, headings = random_poses(world, np.random.default_rng(len(name)), 300)
        for position, heading in zip(positions, headings):
            heading = float(heading)
            assert_same(
                world.ray_depths(position, heading, angles, config.max_range),
                reference_ray_depths(world, position, heading, angles, config.max_range),
            )

    def test_rays_cast_from_obstacle_rims_match_reference(self):
        # Rays that start exactly on an obstacle's rim hit it at t = 0.
        world = DroneWorld(obstacles=[[30.0, 0.0], [50.0, 5.0]])
        angles = np.concatenate([DroneNavEnv(world, SMALL)._ray_angles, [0.0]])
        offsets = [(2.5, 0.0), (-2.5, 0.0), (0.0, 2.5), (0.0, -2.5)]
        for obstacle in world.obstacles:
            for offset in offsets:
                for heading in (0.0, np.pi, np.pi / 2, -np.pi / 2):
                    position = obstacle + offset
                    assert_same(
                        world.ray_depths(position, heading, angles, 40.0),
                        reference_ray_depths(world, position, heading, angles, 40.0),
                    )

    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_collides_matches_reference(self, name):
        world = WORLDS[name]
        positions, _ = random_poses(world, np.random.default_rng(7 + len(name)), 600)
        if world.obstacles.size:
            # Poses at obstacle rims, where the hypot comparison decides.
            rims = world.obstacles[:50] + world.obstacle_radius + 1.0
            positions = np.concatenate([positions, rims, world.obstacles[:50]])
        for radius in (0.5, 1.0, 3.0):
            # Poses exactly at the wall limit, where the wall comparison decides.
            edge = world.half_width - radius
            walls = np.array([[10.0, edge], [10.0, -edge], [10.0, np.nextafter(edge, 0.0)]])
            for position in np.concatenate([positions, walls]):
                actual = world.collides(position, radius)
                assert type(actual) is bool
                assert actual == reference_collides(world, position, radius)


class TestEnvKernel:
    def test_episodes_match_reference_and_reach_every_outcome(self, monkeypatch):
        casts = []
        ray_depths = DroneWorld.ray_depths

        def counted(world, *args, **kwargs):
            casts.append(1)
            return ray_depths(world, *args, **kwargs)

        monkeypatch.setattr(DroneWorld, "ray_depths", counted)
        reached = set()
        for name, world in WORLDS.items():
            for config in (SMALL, DEFAULT):
                env = DroneNavEnv(world, config)
                reference = ReferenceDroneNav(world, config)
                for action_for in action_streams():
                    casts.clear()
                    assert_same(env.reset(), reference.reset())
                    assert_same(env.observe(), reference.observe())
                    step = 0
                    done = False
                    while not done:
                        action = action_for(step)
                        result = env.step(action)
                        observation, reward, done, info = reference.step(action)
                        assert_same(result.observation, observation)
                        assert_same(result.reward, reward)
                        assert result.done is done
                        assert list(result.info) == list(info)
                        for key in info:
                            assert_same(result.info[key], info[key])
                        reached.add(outcome_kind(world, config, info))
                        step += 1
                    assert env.flight_distance == reference.distance
                    # One cast per reset, one per observe() and one per step.
                    assert len(casts) == 2 + step
        assert reached == {
            "fly",
            "wall crash",
            "obstacle crash",
            "survived by length",
            "survived by max_steps",
        }
