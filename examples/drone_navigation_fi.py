"""Drone navigation fault injection: the paper's large-scale workload.

Run with::

    python examples/drone_navigation_fi.py

The script behaviour-clones the offline drone policy (cached on first run),
builds a federated swarm over per-drone corridor worlds, fine-tunes it, and
then measures the safe flight distance under server/agent faults and under
the three fixed-point data types from the paper's data-type study.
"""

from repro.core import DroneScale
from repro.core.experiments.drone_inference import datatype_study_plan
from repro.core.pretrained import PolicyCache
from repro.core.workloads import build_drone_frl_system
from repro.core.fault_callbacks import make_training_fault


def main() -> None:
    scale = DroneScale(
        drone_count=2,
        max_steps=220,
        corridor_length=450.0,
        fine_tune_episodes=4,
        pretrain_collection_episodes=2,
        pretrain_epochs=6,
        pretrain_dagger_iterations=2,
    )
    cache = PolicyCache()

    print("Pre-training the drone policy offline (behaviour cloning + DAgger)...")
    pretrained = cache.drone_policy(scale)
    print(f"  cloning accuracy: {pretrained['accuracy']:.1%}")
    print(f"  clean safe flight distance: {pretrained['flight_distance']:.0f} m")

    print("\nFine-tuning the federated swarm with a server fault (BER=1e-2)...")
    system = build_drone_frl_system(scale, initial_state=pretrained["policy"])
    fault = make_training_fault("server", bit_error_rate=1e-2,
                                injection_episode=scale.fine_tune_episodes // 2,
                                datatype=scale.datatype, rng=0)
    system.train(scale.fine_tune_episodes, callbacks=[fault])
    print(f"  safe flight distance after server fault: "
          f"{system.average_flight_distance():.0f} m")

    print("\nFine-tuning with an agent fault at the same BER...")
    system = build_drone_frl_system(scale, initial_state=pretrained["policy"])
    fault = make_training_fault("agent", bit_error_rate=1e-2,
                                injection_episode=scale.fine_tune_episodes // 2,
                                datatype=scale.datatype, rng=0)
    system.train(scale.fine_tune_episodes, callbacks=[fault])
    print(f"  safe flight distance after agent fault:  "
          f"{system.average_flight_distance():.0f} m")

    print("\nRunning the fixed-point data-type study (paper §IV-B-3)...")
    datatypes = datatype_study_plan(
        scale=scale, ber_values=(0.0, 1e-3, 1e-2), cache=cache, repeats=1
    ).run_serial()
    print(datatypes.render())


if __name__ == "__main__":
    main()
