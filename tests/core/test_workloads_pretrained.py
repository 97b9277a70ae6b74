"""Tests for workload builders and the policy cache."""

import numpy as np
import pytest

from repro.core.config import GridWorldScale
from repro.core.pretrained import PolicyCache
from repro.core.workloads import (
    build_drone_frl_system,
    build_drone_single_system,
    build_gridworld_frl_system,
    build_gridworld_single_system,
    drone_environments,
    gridworld_environments,
)


class TestGridworldWorkloads:
    def test_frl_system_size(self, tiny_gridworld_scale):
        system = build_gridworld_frl_system(tiny_gridworld_scale)
        assert system.agent_count == tiny_gridworld_scale.agent_count

    def test_reproducible_construction(self, tiny_gridworld_scale):
        a = build_gridworld_frl_system(tiny_gridworld_scale).agents[0].upload_state()
        b = build_gridworld_frl_system(tiny_gridworld_scale).agents[0].upload_state()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_offset_changes_init(self, tiny_gridworld_scale):
        a = build_gridworld_frl_system(tiny_gridworld_scale, seed_offset=0).agents[0].upload_state()
        b = build_gridworld_frl_system(tiny_gridworld_scale, seed_offset=1).agents[0].upload_state()
        assert any(not np.array_equal(a[name], b[name]) for name in a)

    def test_single_system(self, tiny_gridworld_scale):
        system = build_gridworld_single_system(tiny_gridworld_scale)
        assert system.agent_count == 1

    def test_environments_respect_observation_mode(self):
        scale = GridWorldScale.tiny()
        envs = gridworld_environments(scale)
        assert envs[0].observation_shape == (6,)

    def test_local_mode_network_size(self):
        scale = GridWorldScale(agent_count=2, episodes=10, observation_mode="local",
                               evaluation_attempts=2)
        system = build_gridworld_frl_system(scale)
        first_weight = system.agents[0].upload_state()["0.weight"]
        assert first_weight.shape[0] == 4


class TestDroneWorkloads:
    def test_frl_system_size(self, tiny_drone_scale):
        system = build_drone_frl_system(tiny_drone_scale)
        assert system.agent_count == tiny_drone_scale.drone_count

    def test_initial_state_seeds_all_drones(self, tiny_drone_scale, tiny_drone_policy):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=tiny_drone_policy["policy"])
        for agent in system.agents:
            state = agent.upload_state()
            for name in state:
                np.testing.assert_array_equal(state[name], tiny_drone_policy["policy"][name])

    def test_single_system(self, tiny_drone_scale):
        system = build_drone_single_system(tiny_drone_scale)
        assert system.agent_count == 1

    def test_environment_count(self, tiny_drone_scale):
        assert len(drone_environments(tiny_drone_scale)) == tiny_drone_scale.drone_count


class TestPolicyCache:
    def test_gridworld_cache_hit(self, policy_cache, tiny_gridworld_scale, tiny_gridworld_policies):
        # Second call must come from disk and return identical parameters.
        again = policy_cache.gridworld_policies(tiny_gridworld_scale)
        for name in tiny_gridworld_policies["consensus"]:
            np.testing.assert_allclose(
                again["consensus"][name], tiny_gridworld_policies["consensus"][name]
            )
        assert len(again["agents"]) == tiny_gridworld_scale.agent_count

    def test_drone_cache_hit(self, policy_cache, tiny_drone_scale, tiny_drone_policy):
        again = policy_cache.drone_policy(tiny_drone_scale)
        assert again["accuracy"] == pytest.approx(tiny_drone_policy["accuracy"])

    def test_cache_key_depends_on_scale(self, policy_cache, tiny_gridworld_scale):
        from repro.core.pretrained import _scale_key

        other = tiny_gridworld_scale.with_seed(99)
        assert _scale_key("gridworld", tiny_gridworld_scale) != _scale_key("gridworld", other)

    def test_clear(self, tmp_path):
        cache = PolicyCache(tmp_path)
        cache.store("x", {"v": 1})
        assert cache.clear() == 1
        assert cache.load("x") is None

    def test_success_rate_recorded(self, tiny_gridworld_policies):
        assert 0.0 <= tiny_gridworld_policies["success_rate"] <= 1.0
