"""Fault detection and recovery demo: the paper's §V mitigation schemes.

Run with::

    python examples/mitigation_demo.py

The script demonstrates the two proposed low-overhead protections —
reward-drop-triggered server checkpointing during training and range-based
anomaly detection during inference — and prints the end-to-end overhead
comparison against DMR/TMR from the drone performance model (Fig. 9).
"""

from repro.core import GridWorldScale
from repro.core.experiments.mitigation_experiments import inference_mitigation_plan
from repro.core.experiments.overhead import overhead_plan
from repro.core.fault_callbacks import make_training_fault
from repro.core.pretrained import PolicyCache
from repro.core.workloads import build_gridworld_frl_system
from repro.mitigation import ServerCheckpointCallback


def training_mitigation(scale: GridWorldScale) -> None:
    print("== Training-time protection: server checkpointing ==")
    unprotected = build_gridworld_frl_system(scale)
    fault = make_training_fault("server", bit_error_rate=0.02,
                                injection_episode=int(scale.episodes * 0.6),
                                datatype=scale.datatype, rng=0)
    unprotected.train(scale.episodes, callbacks=[fault])
    print(f"  success rate without protection: "
          f"{unprotected.average_success_rate(attempts=8):.1%}")

    protected = build_gridworld_frl_system(scale)
    fault = make_training_fault("server", bit_error_rate=0.02,
                                injection_episode=int(scale.episodes * 0.6),
                                datatype=scale.datatype, rng=0)
    protection = ServerCheckpointCallback(agent_count=protected.agent_count,
                                          drop_percent=25.0, consecutive_episodes=4,
                                          checkpoint_interval=3)
    protected.train(scale.episodes, callbacks=[fault, protection])
    print(f"  success rate with checkpointing:  "
          f"{protected.average_success_rate(attempts=8):.1%} "
          f"({protection.recovery_count} recoveries triggered)")


def inference_mitigation(scale: GridWorldScale, cache: PolicyCache) -> None:
    print("\n== Inference-time protection: range-based anomaly detection ==")
    result = inference_mitigation_plan(
        "gridworld", scale=scale, ber_values=(0.0, 0.01, 0.02), cache=cache, repeats=3
    ).run_serial()
    print(result.render())
    print(f"  max improvement factor: {result.metadata['max_improvement_factor']:.2f}x "
          "(the paper reports up to 3.3x)")


def protection_overhead() -> None:
    print("\n== End-to-end overhead: detection vs DMR vs TMR (Fig. 9) ==")
    print(overhead_plan().run_serial().render())


def main() -> None:
    scale = GridWorldScale(agent_count=3, episodes=100, evaluation_attempts=8)
    cache = PolicyCache()
    training_mitigation(scale)
    inference_mitigation(scale, cache)
    protection_overhead()


if __name__ == "__main__":
    main()
