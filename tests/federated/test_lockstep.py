"""Bitwise identity of the one FRL training loop with the serial loop.

``train_group_lockstep`` interleaves the episodes of several independent
systems and trains each episode's drones as lanes of stacked policies.  The
contract is byte-identity with training each system alone, one agent
episode at a time (``serial_oracle.serial_train``): logs, weights, streams,
callback records and evaluation results must match exactly, not
approximately — this is what lets the campaign runner route whole cell
groups through the vectorized path without perturbing any published number.
"""

from dataclasses import replace

import pytest

from repro.core.experiments.drone_training import (
    _drone_training_group,
    _training_cell_parts,
    drone_training_cell,
)
from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_frl_system, build_drone_single_system
from repro.federated import FRLSystem
from repro.federated.lockstep import (
    average_flight_distance_group_lockstep,
    train_group_lockstep,
)
from repro.rl.lockstep import lane_bundles
from repro.utils.rng import RngFactory

from serial_oracle import serial_train, training_record


@pytest.fixture(scope="module")
def pretrained(tiny_drone_policy):
    """The behaviour-cloned state dict inside the cached policy payload."""
    return tiny_drone_policy["policy"]


def _fault(scale, ber, stream_args, location="agent", episode=1):
    return make_training_fault(
        location=location,
        bit_error_rate=ber,
        injection_episode=episode,
        datatype=scale.datatype,
        rng=RngFactory(scale.seed).stream(*stream_args),
    )


def _mixed_group(scale, pretrained):
    """Three independent cells: FRL/agent-fault, FRL/server-fault, single."""
    systems = [
        build_drone_frl_system(scale, seed_offset=0, initial_state=pretrained),
        build_drone_frl_system(scale, seed_offset=1, initial_state=pretrained),
        build_drone_single_system(scale, initial_state=pretrained),
    ]
    callbacks = [
        [_fault(scale, 1e-2, ("fi", 0), location="agent")],
        [_fault(scale, 1e-3, ("fi", 1), location="server")],
        [_fault(scale, 1e-2, ("fi", 2), location="agent")],
    ]
    return systems, callbacks


class TestGroupTrainingIdentity:
    def test_mixed_group_matches_serial_bitwise(self, tiny_drone_scale, pretrained):
        scale = tiny_drone_scale
        episodes = scale.fine_tune_episodes
        serial_systems, serial_callbacks = _mixed_group(scale, pretrained)
        for system, callbacks in zip(serial_systems, serial_callbacks):
            serial_train(system, episodes, callbacks)
        serial_distances = [system.average_flight_distance() for system in serial_systems]

        vec_systems, vec_callbacks = _mixed_group(scale, pretrained)
        logs = train_group_lockstep(vec_systems, vec_callbacks, [episodes] * 3)
        vec_distances = average_flight_distance_group_lockstep(vec_systems)

        assert vec_distances == serial_distances  # exact, not approx
        for serial, callbacks, vec, vec_cbs, log in zip(
            serial_systems, serial_callbacks, vec_systems, vec_callbacks, logs
        ):
            assert log is vec.log
            assert training_record(vec, vec_cbs) == training_record(serial, callbacks)

    def test_unequal_episode_counts_drop_lanes_out_early(
        self, tiny_drone_scale, pretrained
    ):
        scale = tiny_drone_scale
        counts = [scale.fine_tune_episodes, 1]
        serial = [
            build_drone_frl_system(scale, seed_offset=k, initial_state=pretrained)
            for k in range(2)
        ]
        for system, count in zip(serial, counts):
            serial_train(system, count)
        vec = [
            build_drone_frl_system(scale, seed_offset=k, initial_state=pretrained)
            for k in range(2)
        ]
        train_group_lockstep(vec, [[], []], counts)
        for a, b in zip(serial, vec):
            assert training_record(b) == training_record(a)

    def test_start_episode_offsets_schedule_and_callbacks(self, tiny_drone_scale, pretrained):
        scale = tiny_drone_scale

        def build():
            system = build_drone_frl_system(scale, initial_state=pretrained)
            return system, [_fault(scale, 1e-1, ("fi", 5), episode=4)]

        serial, serial_callbacks = build()
        serial_train(serial, 2, serial_callbacks, start_episode=3)
        system, callbacks = build()
        system.train(2, callbacks=callbacks, start_episode=3)
        assert training_record(system, callbacks) == training_record(serial, serial_callbacks)
        assert [record["episode"] for record in callbacks[0].injections] == [4]


class TestGroupArguments:
    def test_mismatched_episode_list_lengths_rejected(
        self, tiny_drone_scale, pretrained
    ):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=pretrained)
        with pytest.raises(ValueError):
            train_group_lockstep([system], [[]], [1, 2])
        with pytest.raises(ValueError):
            train_group_lockstep([system], [[]], [-1])


def _serial_cells(monkeypatch, cell, kwargs_list):
    """``cell(**kwargs)`` for each kwargs, with systems trained by the serial oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(FRLSystem, "train", serial_train)
        return [cell(**kwargs) for kwargs in kwargs_list]


class TestGroupRunnersMatchSerialCells:
    def test_drone_training_group_runner_identity(
        self, tiny_drone_scale, pretrained, monkeypatch
    ):
        scale = tiny_drone_scale
        kwargs_list = [
            dict(
                location=location,
                scale=scale,
                pretrained=pretrained,
                ber=ber,
                injection_episode=1,
                repeat=0,
                row=row,
                column=0,
            )
            for row, (location, ber) in enumerate(
                [("agent", 1e-3), ("server", 1e-2), ("single", 1e-3)]
            )
        ]
        serial = _serial_cells(monkeypatch, drone_training_cell, kwargs_list)
        assert _drone_training_group(kwargs_list) == serial
        assert [drone_training_cell(**kwargs) for kwargs in kwargs_list] == serial

    def test_two_flight_horizons_run_as_two_bundles(
        self, tiny_drone_scale, pretrained, monkeypatch
    ):
        # Two flight horizons are two environment configs, so the group
        # trains and flies as two bundles side by side.
        scale = tiny_drone_scale
        other = replace(scale, max_steps=scale.max_steps // 2)
        kwargs_list = [
            dict(
                location="agent",
                scale=s,
                pretrained=pretrained,
                ber=1e-3,
                injection_episode=1,
                repeat=0,
                row=row,
                column=0,
            )
            for row, s in enumerate([scale, other, scale])
        ]
        pairs = [
            pair
            for system, _ in (_training_cell_parts(**kwargs) for kwargs in kwargs_list)
            for pair in system.evaluation_pairs()
        ]
        drones = scale.drone_count
        assert [indices for indices, *_ in lane_bundles(pairs)] == [
            list(range(drones)) + list(range(2 * drones, 3 * drones)),
            list(range(drones, 2 * drones)),
        ]
        serial = _serial_cells(monkeypatch, drone_training_cell, kwargs_list)
        assert serial[0] != serial[1]
        assert _drone_training_group(kwargs_list) == serial
