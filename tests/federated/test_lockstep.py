"""Bitwise identity of lockstep group training/evaluation vs serial systems.

``train_group_lockstep`` interleaves the episodes of several independent
systems through one vector environment and one stacked policy.  The contract
is byte-identity with training each system alone: logs, reward histories and
evaluation results must match exactly, not approximately — this is what lets
the campaign runner route whole cell groups through the vectorized path
without perturbing any published number.
"""

import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_frl_system, build_drone_single_system
from repro.federated.callbacks import TrainingCallback
from repro.federated.lockstep import (
    average_flight_distance_group_lockstep,
    lockstep_compatible,
    train_group_lockstep,
)
from repro.utils.rng import RngFactory


@pytest.fixture(scope="module")
def pretrained(tiny_drone_policy):
    """The behaviour-cloned state dict inside the cached policy payload."""
    return tiny_drone_policy["policy"]


def _fault(scale, ber, stream_args, location="agent", target="weights"):
    return make_training_fault(
        location=location,
        bit_error_rate=ber,
        injection_episode=1,
        target=target,
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


def _reward_histories(system):
    return [list(fed.reward_history) for fed in system.agents]


class TestGroupTrainingIdentity:
    def test_mixed_group_matches_serial_bitwise(self, tiny_drone_scale, pretrained):
        scale = tiny_drone_scale
        episodes = scale.fine_tune_episodes
        serial_systems, serial_callbacks = _mixed_group(scale, pretrained)
        for system, callbacks in zip(serial_systems, serial_callbacks):
            system.train(episodes, callbacks=callbacks)
        serial_distances = [system.average_flight_distance() for system in serial_systems]

        vec_systems, vec_callbacks = _mixed_group(scale, pretrained)
        assert lockstep_compatible(vec_systems, vec_callbacks)
        logs = train_group_lockstep(vec_systems, vec_callbacks, [episodes] * 3)
        vec_distances = average_flight_distance_group_lockstep(vec_systems)

        assert vec_distances == serial_distances  # exact, not approx
        for serial, vec, log in zip(serial_systems, vec_systems, logs):
            assert log is vec.log
            assert vec.log.episode_rewards == serial.log.episode_rewards
            assert _reward_histories(vec) == _reward_histories(serial)
            assert vec.log.communication_count == serial.log.communication_count

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
            system.train(count)
        vec = [
            build_drone_frl_system(scale, seed_offset=k, initial_state=pretrained)
            for k in range(2)
        ]
        train_group_lockstep(vec, [[], []], counts)
        for a, b in zip(serial, vec):
            assert a.log.episode_rewards == b.log.episode_rewards
            assert _reward_histories(a) == _reward_histories(b)


class TestLockstepCompatibility:
    def test_weights_fault_callbacks_pass(self, tiny_drone_scale, pretrained):
        systems, callbacks = _mixed_group(tiny_drone_scale, pretrained)
        assert lockstep_compatible(systems, callbacks)

    def test_activation_fault_callbacks_are_rejected(
        self, tiny_drone_scale, pretrained
    ):
        # Activation faults hook the serial network.forward, which the
        # stacked forward never calls — running them in lockstep would
        # silently drop the injected faults.
        scale = tiny_drone_scale
        system = build_drone_frl_system(scale, initial_state=pretrained)
        callback = _fault(scale, 1e-2, ("fi", 9), target="activations")
        assert not lockstep_compatible([system], [[callback]])

    def test_unknown_callback_types_are_rejected(self, tiny_drone_scale, pretrained):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=pretrained)

        class Watcher(TrainingCallback):
            pass

        assert not lockstep_compatible([system], [[Watcher()]])

    def test_empty_callbacks_pass(self, tiny_drone_scale, pretrained):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=pretrained)
        assert lockstep_compatible([system], [[]])

    def test_mismatched_episode_list_lengths_rejected(
        self, tiny_drone_scale, pretrained
    ):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=pretrained)
        with pytest.raises(ValueError):
            train_group_lockstep([system], [[]], [1, 2])
        with pytest.raises(ValueError):
            train_group_lockstep([system], [[]], [-1])


class TestGroupRunnersMatchSerialCells:
    def test_drone_training_group_runner_identity(self, tiny_drone_scale, pretrained):
        from repro.core.experiments.drone_training import (
            _drone_training_group,
            drone_training_cell,
        )

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
        serial = [drone_training_cell(**kwargs) for kwargs in kwargs_list]
        grouped = _drone_training_group(kwargs_list)
        assert grouped == serial

    def test_heterogeneous_max_steps_fall_back_to_serial(
        self, tiny_drone_scale, pretrained
    ):
        # Two flight horizons need two vector environments, so the group
        # fails lockstep_compatible and runs its cells serially.
        from dataclasses import replace

        from repro.core.experiments.drone_training import (
            _drone_training_group,
            _training_cell_parts,
            drone_training_cell,
        )

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
            for row, s in enumerate([scale, other])
        ]
        parts = [_training_cell_parts(**kwargs) for kwargs in kwargs_list]
        assert not lockstep_compatible(
            [system for system, _ in parts], [callbacks for _, callbacks in parts]
        )
        serial = [drone_training_cell(**kwargs) for kwargs in kwargs_list]
        assert serial[0] != serial[1]
        assert _drone_training_group(kwargs_list) == serial
