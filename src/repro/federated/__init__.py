"""Federated reinforcement learning substrate.

Multiple agents interact with their own environments and periodically share
policy parameters with a designated server, which performs a smoothing
average and returns a new parameter set to every agent (paper §III-A).  This
package provides the agents, the server, the communication-interval schedule
and the training orchestrators for both the FRL system and the single-agent
baseline.
"""

from repro.federated.aggregation import AlphaSchedule, smoothing_average
from repro.federated.agent import FederatedAgent
from repro.federated.server import FederatedServer
from repro.federated.schedule import CommunicationSchedule
from repro.federated.callbacks import CallbackList, TrainingCallback
from repro.federated.system import FRLSystem, TrainingLog
from repro.federated.single_agent import SingleAgentSystem

__all__ = [
    "smoothing_average",
    "AlphaSchedule",
    "FederatedAgent",
    "FederatedServer",
    "CommunicationSchedule",
    "TrainingCallback",
    "CallbackList",
    "FRLSystem",
    "TrainingLog",
    "SingleAgentSystem",
]
