"""Fault locations and targets within the FRL system.

The paper considers three physical fault sources — server, communication and
agent — and groups them into two effective classes for analysis:

* **agent faults**: faults in an agent's local data and in the parameters the
  server receives from that agent (agent memory + agent-to-server link).
  They affect a single agent and are smoothed away by the server's averaging.
* **server faults**: faults in the server's data and in the parameters every
  agent receives back (server memory + server-to-agent link).  They affect all
  agents simultaneously.
"""

from __future__ import annotations

from enum import Enum


class FaultLocation(Enum):
    """Physical location of the fault source."""

    AGENT = "agent"
    SERVER = "server"
    AGENT_TO_SERVER = "agent_to_server"
    SERVER_TO_AGENT = "server_to_agent"

    @classmethod
    def parse(cls, value) -> "FaultLocation":
        """Coerce an enum member or its value (``"agent"``, ...) into a :class:`FaultLocation`."""
        return _parse_member(cls, value, "fault location")


class FaultTarget(Enum):
    """Which tensors are corrupted."""

    WEIGHTS = "weights"
    ACTIVATIONS = "activations"
    COMMUNICATED_PARAMETERS = "communicated_parameters"

    @classmethod
    def parse(cls, value) -> "FaultTarget":
        """Coerce an enum member or its value (``"weights"``, ...) into a :class:`FaultTarget`."""
        return _parse_member(cls, value, "fault target")


def _parse_member(enum: type, value, kind: str):
    """The member of ``enum`` that is, or has the value, ``value``."""
    if isinstance(value, enum):
        return value
    accepted = [member.value for member in enum]
    if value not in accepted:
        raise KeyError(f"unknown {kind} {value!r}; accepted: {accepted}")
    return enum(value)


def effective_class(location: FaultLocation) -> str:
    """Map a physical location to the paper's two analysis classes.

    Returns ``"agent"`` for faults that enter through a single agent's data
    (agent memory, agent-to-server link) and ``"server"`` for faults that enter
    through the server's data (server memory, server-to-agent link).
    """
    location = FaultLocation.parse(location)
    if location in (FaultLocation.AGENT, FaultLocation.AGENT_TO_SERVER):
        return "agent"
    return "server"
