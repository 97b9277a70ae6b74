"""Workload builders: assemble FRL / single-agent systems for both tasks."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import DroneScale, GridWorldScale
from repro.envs import (
    DroneNavConfig,
    DroneNavEnv,
    GridWorldEnv,
    make_dronenav_suite,
    make_gridworld_suite,
)
from repro.federated import (
    CommunicationSchedule,
    FRLSystem,
    FederatedAgent,
    FederatedServer,
    SingleAgentSystem,
)
from repro.rl import QLearningAgent, QLearningConfig, ReinforceAgent, ReinforceConfig
from repro.utils.rng import RngFactory


# --------------------------------------------------------------------- GridWorld
def gridworld_environments(scale: GridWorldScale) -> Sequence[GridWorldEnv]:
    """The per-agent GridWorld environments for ``scale``."""
    return make_gridworld_suite(
        agent_count=scale.agent_count,
        size=scale.grid_size,
        max_steps=scale.max_steps,
        observation_mode=scale.observation_mode,
    )


def gridworld_agent_config(scale: GridWorldScale) -> QLearningConfig:
    observation_size = 4 if scale.observation_mode == "local" else 6
    return QLearningConfig(
        observation_size=observation_size,
        hidden_sizes=tuple(scale.hidden_sizes),
        learning_rate=scale.learning_rate,
        epsilon_decay_episodes=scale.epsilon_decay_episodes,
    )


def build_gridworld_frl_system(
    scale: GridWorldScale,
    seed_offset: int = 0,
    schedule: Optional[CommunicationSchedule] = None,
) -> FRLSystem:
    """A fresh FRL GridWorld system (untrained) at the requested scale."""
    rngs = RngFactory(scale.seed + seed_offset)
    envs = gridworld_environments(scale)
    config = gridworld_agent_config(scale)
    agents = [
        FederatedAgent(
            index=index,
            agent=QLearningAgent(config, rng=rngs.stream("gridworld-agent", index)),
            env=envs[index],
        )
        for index in range(scale.agent_count)
    ]
    schedule = schedule or CommunicationSchedule(base_interval=scale.communication_interval)
    return FRLSystem(agents, server=FederatedServer(), schedule=schedule)


def build_gridworld_single_system(
    scale: GridWorldScale, seed_offset: int = 0, environment_count: int = 1
) -> SingleAgentSystem:
    """The single-agent GridWorld baseline (no server, no sharing)."""
    rngs = RngFactory(scale.seed + seed_offset)
    envs = gridworld_environments(scale)[:environment_count]
    config = gridworld_agent_config(scale)
    agent = QLearningAgent(config, rng=rngs.stream("gridworld-single"))
    return SingleAgentSystem(agent, envs)


# ---------------------------------------------------------------------- DroneNav
def drone_env_config(scale: DroneScale) -> DroneNavConfig:
    return DroneNavConfig(
        image_width=scale.image_width,
        image_height=scale.image_height,
        max_steps=scale.max_steps,
    )


def drone_environments(scale: DroneScale) -> Sequence[DroneNavEnv]:
    """The per-drone corridor environments for ``scale``."""
    return make_dronenav_suite(
        drone_count=scale.drone_count,
        config=drone_env_config(scale),
        length=scale.corridor_length,
        half_width=scale.corridor_half_width,
        obstacle_density=scale.obstacle_density,
    )


def drone_agent_config(scale: DroneScale) -> ReinforceConfig:
    return ReinforceConfig(
        input_shape=scale.input_shape,
        conv_channels=tuple(scale.conv_channels),
        fc_hidden=scale.fc_hidden,
        learning_rate=scale.learning_rate,
    )


def build_drone_frl_system(
    scale: DroneScale,
    seed_offset: int = 0,
    schedule: Optional[CommunicationSchedule] = None,
    initial_state: Optional[dict] = None,
) -> FRLSystem:
    """A DroneNav FRL system; ``initial_state`` seeds every drone's policy."""
    rngs = RngFactory(scale.seed + seed_offset)
    envs = drone_environments(scale)
    config = drone_agent_config(scale)
    agents = []
    for index in range(scale.drone_count):
        agent = ReinforceAgent(config, rng=rngs.stream("drone-agent", index))
        if initial_state is not None:
            agent.load_state_dict(initial_state)
        agents.append(FederatedAgent(index=index, agent=agent, env=envs[index]))
    schedule = schedule or CommunicationSchedule(base_interval=scale.communication_interval)
    return FRLSystem(agents, server=FederatedServer(), schedule=schedule)


def build_drone_single_system(
    scale: DroneScale,
    seed_offset: int = 0,
    initial_state: Optional[dict] = None,
    environment_count: int = 1,
) -> SingleAgentSystem:
    """The single-drone baseline (no server, no sharing)."""
    rngs = RngFactory(scale.seed + seed_offset)
    envs = drone_environments(scale)[:environment_count]
    agent = ReinforceAgent(drone_agent_config(scale), rng=rngs.stream("drone-single"))
    if initial_state is not None:
        agent.load_state_dict(initial_state)
    return SingleAgentSystem(agent, envs)
