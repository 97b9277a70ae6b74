"""Activation faults in the one FRL training loop, against the serial loop.

An activation fault wraps a policy network's layers in
``ActivationFaultHook`` for its injection episode.  The stacked forward
never calls a hook, so in that episode a hooked network trains its own
serial episode and is in no stacked policy (``StackedPolicy.refresh`` reads
the live modules and cannot stack a hook).  An agent fault hooks one
network, which trains serially beside the other drones' lanes; a server
fault hooks every network, and the hooked lanes draw from one injector
stream in lane order, as the serial loop does.  At a BER where training
completes, ``FRLSystem.train`` must leave exactly what
``serial_oracle.serial_train`` leaves.  At 1e-4 a flip in a hooked Softmax
output breaks the action probabilities, and both loops raise the same
``ValueError`` from ``Generator.choice``.
"""

import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_frl_system, build_drone_single_system
from repro.faults.hooks import ActivationFaultHook

from serial_oracle import serial_train, training_record

# (drones, fault location, BER, fault seed); a drone count of 1 is a single-agent system.
COMPLETING = [
    (2, "agent", 1e-5, 0),
    (4, "agent", 1e-5, 0),
    (2, "server", 1e-5, 0),
    (4, "server", 3e-5, 1),
    (1, "agent", 1e-5, 0),
]
RAISING = [
    (2, "agent", 1e-4, 0),
    (4, "agent", 1e-4, 1),
    (2, "server", 1e-4, 1),
    (4, "server", 1e-4, 0),
]
EPISODES = 3


def build(scale, pretrained, drones, location, ber, seed):
    if drones == 1:
        system = build_drone_single_system(scale, initial_state=pretrained)
    else:
        system = build_drone_frl_system(scale.with_drones(drones), initial_state=pretrained)
    fault = make_training_fault(
        location=location,
        target="activations",
        bit_error_rate=ber,
        injection_episode=1,
        datatype=scale.datatype,
        rng=seed,
    )
    return system, [fault]


@pytest.fixture(scope="module")
def pretrained(tiny_drone_policy):
    return tiny_drone_policy["policy"]


@pytest.mark.parametrize("drones, location, ber, seed", COMPLETING)
def test_activation_faults_match_the_serial_loop(
    tiny_drone_scale, pretrained, drones, location, ber, seed
):
    parts = (tiny_drone_scale, pretrained, drones, location, ber, seed)
    reference, reference_callbacks = build(*parts)
    serial_train(reference, EPISODES, reference_callbacks)
    system, callbacks = build(*parts)
    system.train(EPISODES, callbacks=callbacks)

    assert training_record(system, callbacks) == training_record(reference, reference_callbacks)
    (fault,) = callbacks
    assert fault.injector.total_injected_bits() > 0
    # The hooks came off after their episode, so evaluation stacks every network.
    for fed in system.agents:
        assert not any(isinstance(m, ActivationFaultHook) for m in fed.agent.network.modules)
    assert system.average_flight_distance() == reference.average_flight_distance()


@pytest.mark.parametrize("drones, location, ber, seed", RAISING)
def test_broken_probabilities_raise_as_in_the_serial_loop(
    tiny_drone_scale, pretrained, drones, location, ber, seed
):
    parts = (tiny_drone_scale, pretrained, drones, location, ber, seed)
    reference, reference_callbacks = build(*parts)
    with pytest.raises(ValueError, match="^Probabilities") as serial_error:
        serial_train(reference, EPISODES, reference_callbacks)
    system, callbacks = build(*parts)
    with pytest.raises(ValueError, match="^Probabilities") as error:
        system.train(EPISODES, callbacks=callbacks)
    assert str(error.value) == str(serial_error.value)
    assert system.log.episodes == reference.log.episodes == 1
