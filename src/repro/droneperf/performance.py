"""Flight-time / flight-distance estimation under protection overheads.

The model captures the causal chain the paper relies on for Fig. 9:

1. a protection scheme replicates the compute subsystem ``r`` times, adding
   ``(r - 1)`` times the compute payload mass and power;
2. a heavier drone needs more hover power (∝ mass^1.5), and together with the
   larger compute power this shortens the flight time
   (battery energy / total power);
3. runtime overhead on the perception-action critical path lowers the
   achievable safe velocity proportionally, and payload close to the
   platform's payload budget erodes the thrust margin, lowering the safe
   velocity further — the dominant effect on a micro-UAV;
4. the safe flight distance is velocity × flight time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.droneperf.platform import DronePlatform
from repro.mitigation.redundancy import PROTECTION_SCHEMES, RedundancyScheme


@dataclass(frozen=True)
class FlightEstimate:
    """Estimated end-to-end flight characteristics of one configuration."""

    platform: str
    scheme: str
    total_mass_g: float
    total_power_w: float
    flight_time_s: float
    velocity_mps: float
    flight_distance_m: float

    def as_dict(self) -> dict:
        return {
            "platform": self.platform,
            "scheme": self.scheme,
            "total_mass_g": self.total_mass_g,
            "total_power_w": self.total_power_w,
            "flight_time_s": self.flight_time_s,
            "velocity_mps": self.velocity_mps,
            "flight_distance_m": self.flight_distance_m,
        }


@dataclass(frozen=True)
class ProtectionOverheadResult:
    """Fig. 9 style comparison for one platform."""

    platform: str
    estimates: Dict[str, FlightEstimate]


def estimate_flight(
    platform: DronePlatform,
    scheme: RedundancyScheme,
    mission_energy_fraction: float = 0.8,
) -> FlightEstimate:
    """Estimate flight time, velocity and distance for one protection scheme."""
    if not 0.0 < mission_energy_fraction <= 1.0:
        raise ValueError("mission_energy_fraction must be in (0, 1]")
    extra_replicas = scheme.compute_replicas - 1
    extra_mass = extra_replicas * platform.compute_mass_g
    total_mass = platform.mass_g + extra_mass
    hover_power = platform.hover_power_w(total_mass)
    compute_power = platform.compute_power_w * scheme.compute_replicas
    total_power = hover_power + compute_power
    usable_energy_wh = platform.battery_energy_wh * mission_energy_fraction
    flight_time_s = usable_energy_wh * 3600.0 / total_power
    # Runtime overhead stretches the perception-action loop, so the drone must
    # fly proportionally slower to keep the same stopping margin.  Payload
    # eats into the platform's thrust margin: as the extra mass approaches the
    # payload budget the agility-limited safe velocity collapses, which is why
    # redundancy is so costly on a micro-UAV.
    payload_margin = max(0.05, 1.0 - extra_mass / platform.max_payload_g)
    velocity = (
        platform.base_velocity_mps
        / (1.0 + scheme.runtime_overhead)
        * (platform.mass_g / total_mass) ** 0.5
        * payload_margin**0.5
    )
    distance = velocity * flight_time_s
    return FlightEstimate(
        platform=platform.name,
        scheme=scheme.name,
        total_mass_g=total_mass,
        total_power_w=total_power,
        flight_time_s=flight_time_s,
        velocity_mps=velocity,
        flight_distance_m=distance,
    )


def evaluate_protection_overheads(
    platform: DronePlatform,
    schemes: Optional[Iterable[str]] = None,
    mission_energy_fraction: float = 0.8,
) -> ProtectionOverheadResult:
    """Compare protection schemes on one platform (paper Fig. 9)."""
    names: List[str] = list(schemes) if schemes is not None else list(PROTECTION_SCHEMES)
    estimates: Dict[str, FlightEstimate] = {}
    for name in names:
        if name not in PROTECTION_SCHEMES:
            raise KeyError(f"unknown protection scheme {name!r}")
        estimates[name] = estimate_flight(
            platform, PROTECTION_SCHEMES[name], mission_energy_fraction=mission_energy_fraction
        )
    return ProtectionOverheadResult(platform=platform.name, estimates=estimates)
