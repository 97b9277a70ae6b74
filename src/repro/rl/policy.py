"""Policy-level statistics (paper Table I).

The paper quantifies the generalization of the consensus policy by the
standard deviation of its outputs: a larger spread over actions for a given
state means the policy differentiates good from bad actions more sharply,
which correlates with both higher performance and higher fault resilience.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.envs.gridworld import enumerate_observations
from repro.nn.losses import softmax
from repro.nn.network import gridworld_q_values

StateDict = Dict[str, np.ndarray]


def policy_action_distribution(
    state: StateDict, observations: Optional[np.ndarray] = None
) -> np.ndarray:
    """Action-preference distribution of a GridWorld Q-network state over GridWorld states.

    Returns an array of shape ``(states, actions)`` with the softmax of the
    Q-values (:func:`~repro.nn.network.gridworld_q_values`) for every
    enumerated observation.  The observation size is taken from the state's
    first layer.
    """
    if observations is None:
        observations = enumerate_observations(np.shape(state["0.weight"])[0])
    return softmax(gridworld_q_values(state, observations), axis=1)


def consensus_policy_std(state: StateDict) -> float:
    """Standard deviation of the consensus policy's action preferences.

    Computes the standard deviation of per-state action probabilities of the
    Q-network holding ``state``, averaged over states.  Higher values
    indicate better differentiation between good and bad actions
    (paper Table I).
    """
    distribution = policy_action_distribution(state)
    return float(distribution.std(axis=1).mean())
