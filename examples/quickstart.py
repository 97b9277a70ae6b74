"""Quickstart: train a small FRL GridWorld system, inject a fault, measure the impact.

Run with::

    python examples/quickstart.py

The script trains a 4-agent federated GridWorld system, measures its clean
success rate, then injects a transient bit-flip fault into the server's
consensus policy and into a single agent's policy and reports how much each
hurts — the paper's central observation (server faults dominate) in a few
seconds of CPU time.
"""

from repro.core import GridWorldScale
from repro.core.experiments.inference_utils import success_rate_over_envs
from repro.core.workloads import build_gridworld_frl_system, gridworld_environments
from repro.faults import FaultInjector


def main() -> None:
    scale = GridWorldScale(agent_count=4, episodes=150, evaluation_attempts=10)

    print("Training a 4-agent federated GridWorld system "
          f"({scale.episodes} episodes, communication every "
          f"{scale.communication_interval} episodes)...")
    system = build_gridworld_frl_system(scale)
    system.train(scale.episodes)
    consensus = system.consensus_state()

    envs = gridworld_environments(scale)

    def success_rate(policy_state) -> float:
        return success_rate_over_envs(scale, policy_state, envs, 10, rng=0) * 100.0

    clean = success_rate(consensus)
    print(f"Clean unified policy success rate: {clean:.1f}%")

    injector = FaultInjector(datatype=scale.datatype, model="transient", rng=1)
    ber = 0.01  # 1% of storage bits upset

    server_fault = injector.corrupt_state_dict(consensus, ber)
    print(f"Server fault at BER={ber:.0%}: success rate {success_rate(server_fault):.1f}% "
          "(every agent receives the corrupted policy)")

    # An agent fault corrupts one upload; the server's smoothing average
    # dilutes it across the swarm before it reaches anyone else.
    uploads = [agent.upload_state() for agent in system.agents]
    uploads[0] = injector.corrupt_state_dict(uploads[0], ber)
    smoothed = system.server.aggregate(uploads)
    print(f"Agent fault at BER={ber:.0%}:  success rate {success_rate(smoothed[1]):.1f}% "
          "(other agents receive the smoothed policy)")


if __name__ == "__main__":
    main()
