"""The federated server: parameter aggregation and consensus tracking."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.federated.aggregation import AlphaSchedule, average_states, smoothing_average

StateDict = Dict[str, np.ndarray]


class FederatedServer:
    """Aggregates agent policies with a smoothing average.

    The server keeps the consensus (plain average) policy and a running count
    of communication rounds, which drives the decay of the smoothing weight
    toward ``1/n``.
    """

    def __init__(self, alpha_schedule: Optional[AlphaSchedule] = None) -> None:
        self.alpha_schedule = alpha_schedule or AlphaSchedule()
        self.round_index = 0
        self._consensus: Optional[StateDict] = None

    @property
    def consensus(self) -> Optional[StateDict]:
        """The current consensus (plain average) policy, if any round happened."""
        return self._consensus

    def set_consensus(self, state: StateDict) -> None:
        """Overwrite the server's consensus policy (used by checkpoint recovery)."""
        self._consensus = {name: np.array(value, copy=True) for name, value in state.items()}

    def aggregate(self, uploads: Sequence[StateDict]) -> List[StateDict]:
        """One aggregation round; returns the personalized broadcast states."""
        uploads = [dict(state) for state in uploads]
        if not uploads:
            raise ValueError("aggregate requires at least one upload")
        alpha = self.alpha_schedule.alpha(self.round_index, len(uploads))
        broadcasts = smoothing_average(uploads, alpha)
        self._consensus = average_states(uploads)
        self.round_index += 1
        return broadcasts
