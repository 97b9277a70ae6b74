"""Transient-fault models and the software-level fault injection engine.

This is the heart of FRL-FI's methodology: random bit flips (and stuck-at
faults for comparison) are applied to the integer code words of quantized
tensors — policy weights, activations/feature maps and communicated parameter
updates — at a configurable bit-error rate, at either a single injection point
(static injection before inference) or continuously during training/inference
(dynamic injection).
"""

from repro.faults.models import (
    FaultModel,
    StuckAt0,
    StuckAt1,
    TransientBitFlip,
    resolve_fault_model,
)
from repro.faults.ber import BitErrorRate, fault_count_for
from repro.faults.locations import FaultLocation, FaultTarget, effective_class
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.faults.spec import FaultSpec
from repro.faults.hooks import ActivationFaultHook, attach_activation_faults

__all__ = [
    "FaultModel",
    "TransientBitFlip",
    "StuckAt0",
    "StuckAt1",
    "resolve_fault_model",
    "BitErrorRate",
    "fault_count_for",
    "FaultLocation",
    "FaultTarget",
    "effective_class",
    "FaultInjector",
    "InjectionRecord",
    "FaultSpec",
    "ActivationFaultHook",
    "attach_activation_faults",
]
