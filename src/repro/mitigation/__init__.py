"""Fault detection and recovery techniques (paper §V).

Two low-overhead, application-aware schemes:

* **Training — server checkpointing**: the agents' cumulative reward drop is
  the fault symptom; a drop of more than ``p`` % for ``k`` consecutive
  episodes in one agent flags an agent fault, in more than half the agents a
  server fault.  The server keeps a checkpoint of the consensus policy
  (updated every few communication rounds) and restores the faulty agent or
  itself from it.
* **Inference — range-based anomaly detection**: the per-layer weight range
  (with a 10 % margin) is recorded before steady exploitation starts; any
  weight outside the range is treated as corrupted and suppressed.

DMR/TMR redundancy baselines are provided for the end-to-end overhead
comparison (paper Fig. 9).
"""

from repro.mitigation.reward_monitor import DetectionEvent, RewardDropDetector
from repro.mitigation.checkpointing import ServerCheckpointCallback, CheckpointStore
from repro.mitigation.anomaly import RangeAnomalyDetector, WeightRange
from repro.mitigation.redundancy import RedundancyScheme, PROTECTION_SCHEMES

__all__ = [
    "RewardDropDetector",
    "DetectionEvent",
    "ServerCheckpointCallback",
    "CheckpointStore",
    "RangeAnomalyDetector",
    "WeightRange",
    "RedundancyScheme",
    "PROTECTION_SCHEMES",
]
