"""Checkpoint recovery (paper §V-A, Fig. 7) in the one FRL training loop.

A drone system carries a weight fault and a ``ServerCheckpointCallback``
tuned to react within an episode: every reward drop of 5% flags its agent,
and each communication round refreshes the checkpoint.  Its recoveries
overwrite agents' weights (agent kind) or the server's consensus and every
agent (server kind) in ``on_round_end``, and the next episode's lanes must
train from the restored weights.  ``FRLSystem.train`` must leave exactly
what the serial loop (``serial_oracle.serial_train``) leaves: rewards,
events, communication episodes, weights, consensus, every agent and
callback stream and the callbacks' records.  The cases are chosen so that
both recovery kinds fire, one recovery lands in the last episode (whose
restored weights no later episode reads) and a 2- and a 4-drone system and
a single-agent system are covered.
"""

import pytest

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import build_drone_frl_system, build_drone_single_system
from repro.mitigation import ServerCheckpointCallback

from serial_oracle import serial_train, training_record

# (system, fault location, fault seed, episodes, recovery kinds, last episode recovers)
CASES = [
    ("2 drones", "server", 4, 6, {"server"}, False),
    ("4 drones", "server", 4, 6, {"agent", "server"}, False),
    ("4 drones", "agent", 3, 6, {"agent"}, True),
    ("single", "agent", 3, 5, {"server"}, True),
]


def build(scale, pretrained, system_kind, location, seed):
    if system_kind == "single":
        system = build_drone_single_system(scale, initial_state=pretrained, environment_count=2)
    else:
        drones = int(system_kind.split()[0])
        system = build_drone_frl_system(scale.with_drones(drones), initial_state=pretrained)
    fault = make_training_fault(
        location=location,
        bit_error_rate=0.05,
        injection_episode=1,
        datatype=scale.datatype,
        rng=seed,
    )
    checkpoint = ServerCheckpointCallback(
        agent_count=system.agent_count,
        drop_percent=5.0,
        consecutive_episodes=1,
        checkpoint_interval=1,
        baseline_window=3,
    )
    return system, [fault, checkpoint]


@pytest.mark.parametrize("system_kind, location, seed, episodes, kinds, last", CASES)
def test_recoveries_match_the_serial_loop(
    tiny_drone_scale, tiny_drone_policy, system_kind, location, seed, episodes, kinds, last
):
    parts = (tiny_drone_scale, tiny_drone_policy["policy"], system_kind, location, seed)
    reference, reference_callbacks = build(*parts)
    serial_train(reference, episodes, reference_callbacks)
    system, callbacks = build(*parts)
    log = system.train(episodes, callbacks=callbacks)

    assert log is system.log
    assert training_record(system, callbacks) == training_record(reference, reference_callbacks)
    recoveries = callbacks[1].recoveries
    assert {event.kind for event in recoveries} == kinds
    assert (recoveries[-1].episode == episodes - 1) is last
    assert [event["episode"] for event in log.events] == [event.episode for event in recoveries]
    assert system.average_flight_distance() == reference.average_flight_distance()
