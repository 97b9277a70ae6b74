"""Reinforcement-learning algorithms used by the FRL navigation systems.

GridWorld agents learn with NN-based Q-learning (value-based, ε-greedy
exploration); drone agents learn with the REINFORCE policy gradient over a
CNN policy, matching the paper's training recipe (offline REINFORCE followed
by online fine-tuning).  Both expose the same :class:`Agent` interface so the
federated layer can treat them uniformly.
"""

from repro.rl.base import Agent, EpisodeStats
from repro.rl.exploration import EpsilonSchedule, LinearEpsilonDecay
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.rollout import evaluate_success_rate, greedy_episode
from repro.rl.policy import consensus_policy_std, policy_action_distribution

__all__ = [
    "Agent",
    "EpisodeStats",
    "EpsilonSchedule",
    "LinearEpsilonDecay",
    "ReplayBuffer",
    "Transition",
    "QLearningAgent",
    "QLearningConfig",
    "ReinforceAgent",
    "ReinforceConfig",
    "greedy_episode",
    "evaluate_success_rate",
    "consensus_policy_std",
    "policy_action_distribution",
]
