"""Tests for deterministic RNG management."""

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_rng, spawn_rngs


class TestAsRng:
    def test_accepts_integer_seed(self):
        generator = as_rng(42)
        assert isinstance(generator, np.random.Generator)

    def test_same_seed_same_stream(self):
        assert as_rng(7).integers(0, 1000, 10).tolist() == as_rng(7).integers(0, 1000, 10).tolist()

    def test_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_accepts_seed_sequence(self):
        sequence = np.random.SeedSequence(5)
        generator = as_rng(sequence)
        assert isinstance(generator, np.random.Generator)

    def test_none_gives_fresh_entropy(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_differ(self):
        streams = spawn_rngs(0, 3)
        draws = [stream.integers(0, 10**9) for stream in streams]
        assert len(set(draws)) == 3

    def test_reproducible(self):
        first = [g.integers(0, 10**9) for g in spawn_rngs(3, 4)]
        second = [g.integers(0, 10**9) for g in spawn_rngs(3, 4)]
        assert first == second

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(0)
        children = spawn_rngs(parent, 2)
        assert len(children) == 2


class TestRngFactory:
    def test_same_key_same_stream(self):
        factory = RngFactory(0)
        a = factory.stream("agent", 3).integers(0, 10**9, 5)
        b = factory.stream("agent", 3).integers(0, 10**9, 5)
        assert a.tolist() == b.tolist()

    def test_different_keys_different_streams(self):
        factory = RngFactory(0)
        a = factory.stream("agent", 0).integers(0, 10**9, 5)
        b = factory.stream("agent", 1).integers(0, 10**9, 5)
        assert a.tolist() != b.tolist()

    def test_order_independence(self):
        first = RngFactory(1)
        _ = first.stream("x")
        value_after = first.stream("y").integers(0, 10**9)
        second = RngFactory(1)
        value_direct = second.stream("y").integers(0, 10**9)
        assert value_after == value_direct

    def test_streams_helper(self):
        factory = RngFactory(2)
        streams = factory.streams("fault", 4)
        assert len(streams) == 4

    def test_seed_property(self):
        assert RngFactory(9).seed == 9
