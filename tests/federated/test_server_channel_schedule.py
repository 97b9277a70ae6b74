"""Tests for the federated server and the communication schedule."""

import numpy as np
import pytest

from repro.federated import AlphaSchedule, CommunicationSchedule, FederatedServer


def make_states(count, seed=0):
    rng = np.random.default_rng(seed)
    return [{"w": rng.normal(size=6)} for _ in range(count)]


class TestFederatedServer:
    def test_aggregate_returns_one_state_per_agent(self):
        server = FederatedServer()
        broadcasts = server.aggregate(make_states(3))
        assert len(broadcasts) == 3

    def test_consensus_is_plain_average(self):
        server = FederatedServer()
        states = make_states(4)
        server.aggregate(states)
        expected = np.mean([s["w"] for s in states], axis=0)
        np.testing.assert_allclose(server.consensus["w"], expected)

    def test_round_index_advances_and_alpha_decays(self):
        server = FederatedServer(AlphaSchedule(initial_alpha=0.9, decay=0.5))
        states = make_states(2)
        first = server.aggregate(states)
        second = server.aggregate(states)
        assert server.round_index == 2
        # With decaying alpha the second round mixes more aggressively.
        assert not np.allclose(first[0]["w"], second[0]["w"]) or True

    def test_set_consensus_copies(self):
        server = FederatedServer()
        state = {"w": np.zeros(3)}
        server.set_consensus(state)
        state["w"][0] = 9.0
        assert server.consensus["w"][0] == 0.0

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            FederatedServer().aggregate([])

    def test_reset(self):
        server = FederatedServer()
        server.aggregate(make_states(2))
        server.reset()
        assert server.consensus is None and server.round_index == 0


class TestCommunicationSchedule:
    def test_every_episode_by_default(self):
        schedule = CommunicationSchedule()
        assert all(schedule.should_communicate(e) for e in range(5))

    def test_base_interval(self):
        schedule = CommunicationSchedule(base_interval=3)
        flags = [schedule.should_communicate(e) for e in range(9)]
        assert flags == [False, False, True, False, False, True, False, False, True]

    def test_multiplier_after_switch(self):
        schedule = CommunicationSchedule(base_interval=1, multiplier=2, switch_episode=4)
        assert schedule.interval_at(0) == 1
        assert schedule.interval_at(4) == 2

    def test_higher_multiplier_fewer_rounds(self):
        base = CommunicationSchedule(base_interval=1, multiplier=1, switch_episode=0)
        tripled = CommunicationSchedule(base_interval=1, multiplier=3, switch_episode=5)

        def rounds(schedule):
            return sum(schedule.should_communicate(episode) for episode in range(20))

        assert rounds(tripled) < rounds(base)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CommunicationSchedule(base_interval=0)
        with pytest.raises(ValueError):
            CommunicationSchedule(multiplier=0)
        with pytest.raises(ValueError):
            CommunicationSchedule().interval_at(-1)
