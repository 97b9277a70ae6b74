"""Disk cache of pre-trained policies.

Inference-time fault experiments (Figs. 4, 8 and the data-type study) corrupt
a *trained* policy; training one from scratch for every benchmark cell would
dominate the runtime.  The :class:`PolicyCache` trains each workload once per
scale and stores the resulting state dicts as JSON under a cache directory
(``FRLFI_CACHE_DIR`` or ``<repo>/.frlfi_cache`` by default), keyed by the
scale's parameters, so repeated experiment runs reuse the same baseline
policy.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.core.config import DroneScale, GridWorldScale
from repro.core.workloads import (
    build_drone_frl_system,
    build_gridworld_frl_system,
    build_gridworld_single_system,
)
from repro.rl.pretrain import PretrainConfig, behaviour_clone
from repro.runtime.residency import PolicyRef
from repro.utils.serialization import load_json, save_json, state_dict_from_lists, state_dict_to_lists

StateDict = Dict[str, np.ndarray]


def _scale_key(prefix: str, scale) -> str:
    payload = json.dumps(asdict(scale), sort_keys=True, default=str)
    digest = hashlib.sha1(payload.encode("utf8")).hexdigest()[:16]
    return f"{prefix}-{digest}"


class PolicyCache:
    """Train-once, reuse-everywhere storage of baseline policies."""

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        if cache_dir is None:
            cache_dir = Path(os.environ.get("FRLFI_CACHE_DIR", Path.cwd() / ".frlfi_cache"))
        self.cache_dir = Path(cache_dir)

    # ------------------------------------------------------------------ storage
    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not path.exists():
            return None
        return load_json(path)

    def store(self, key: str, payload: dict) -> None:
        save_json(self._path(key), payload)

    def clear(self) -> int:
        """Delete every cached artefact; returns the number of files removed."""
        removed = 0
        if self.cache_dir.exists():
            # Deterministic deletion order (REP002): glob order is
            # filesystem-dependent, and a clear() interrupted midway should
            # leave the same survivors on every machine.
            for path in sorted(self.cache_dir.glob("*.json")):
                path.unlink()
                removed += 1
        return removed

    # ---------------------------------------------------------- policy references
    def _ref(self, key: str, field: str) -> PolicyRef:
        return PolicyRef(cache_dir=str(self.cache_dir), key=key, field=field)

    def gridworld_consensus_ref(self, scale: GridWorldScale) -> PolicyRef:
        """By-reference handle to the trained GridWorld consensus policy.

        Trains (and stores) the baseline if the cache entry is missing, so the
        returned ref always resolves.  Existence is probed by path — cache
        writes are atomic (``os.replace``), so a present file is a complete
        entry and the multi-MB JSON need not be parsed just to hand out a
        ref.  Campaign cells carry this handle instead of the state dict
        itself; pooled workers decode the cache entry once per process (see
        :mod:`repro.runtime.residency`).
        """
        key = _scale_key("gridworld", scale)
        if not self._path(key).exists():
            self.gridworld_policies(scale)
        return self._ref(key, "consensus")

    def gridworld_single_policy_ref(self, scale: GridWorldScale) -> PolicyRef:
        """By-reference handle to the trained single-agent GridWorld policy."""
        key = _scale_key("gridworld-single", scale)
        if not self._path(key).exists():
            self.gridworld_single_policy(scale)
        return self._ref(key, "policy")

    def drone_policy_ref(self, scale: DroneScale) -> PolicyRef:
        """By-reference handle to the behaviour-cloned drone policy."""
        key = _scale_key("drone", scale)
        if not self._path(key).exists():
            self.drone_policy(scale)
        return self._ref(key, "policy")

    # ------------------------------------------------------- GridWorld baseline
    def gridworld_policies(self, scale: GridWorldScale) -> dict:
        """Trained GridWorld FRL policies for ``scale``.

        Returns a dict with the consensus policy, every agent's policy and the
        clean success rate measured right after training.
        """
        key = _scale_key("gridworld", scale)
        cached = self.load(key)
        if cached is not None:
            return {
                "consensus": state_dict_from_lists(cached["consensus"]),
                "agents": [state_dict_from_lists(state) for state in cached["agents"]],
                "success_rate": cached["success_rate"],
            }
        system = build_gridworld_frl_system(scale)
        system.train(scale.episodes)
        consensus = system.consensus_state()
        agents = [agent.upload_state() for agent in system.agents]
        success_rate = system.average_success_rate(attempts=scale.evaluation_attempts)
        self.store(
            key,
            {
                "consensus": state_dict_to_lists(consensus),
                "agents": [state_dict_to_lists(state) for state in agents],
                "success_rate": success_rate,
            },
        )
        return {"consensus": consensus, "agents": agents, "success_rate": success_rate}

    def gridworld_single_policy(self, scale: GridWorldScale) -> StateDict:
        """Trained single-agent GridWorld baseline policy for ``scale``.

        Used by the inference-time sweeps (Fig. 4's Single-Trans-M curve);
        caching it lets pooled campaign workers share one training run.  The
        JSON round trip is exact for float64, so a cached policy is
        bit-identical to a freshly trained one.
        """
        key = _scale_key("gridworld-single", scale)
        cached = self.load(key)
        if cached is not None:
            return state_dict_from_lists(cached["policy"])
        system = build_gridworld_single_system(scale, environment_count=1)
        system.train(scale.episodes)
        policy = system.consensus_state()
        self.store(key, {"policy": state_dict_to_lists(policy)})
        return policy

    # --------------------------------------------------------- DroneNav baseline
    def drone_policy(self, scale: DroneScale) -> dict:
        """Offline pre-trained drone policy for ``scale``.

        The policy is behaviour-cloned from the depth-seeking expert pilot
        (with DAgger corrections) over the per-drone worlds; the returned dict
        carries the policy state, the cloning accuracy and the clean average
        flight distance.
        """
        key = _scale_key("drone", scale)
        cached = self.load(key)
        if cached is not None:
            return {
                "policy": state_dict_from_lists(cached["policy"]),
                "accuracy": cached["accuracy"],
                "flight_distance": cached["flight_distance"],
            }
        system = build_drone_frl_system(scale)
        envs = [agent.env for agent in system.agents]
        reference_agent = system.agents[0].agent
        pretrain = PretrainConfig(
            collection_episodes=scale.pretrain_collection_episodes,
            epochs=scale.pretrain_epochs,
            dagger_iterations=scale.pretrain_dagger_iterations,
            max_samples=6000,
        )
        accuracy = behaviour_clone(reference_agent, envs, pretrain, rng=scale.seed)
        policy = reference_agent.state_dict()
        for agent in system.agents:
            agent.receive_state(policy)
        flight_distance = system.average_flight_distance()
        self.store(
            key,
            {
                "policy": state_dict_to_lists(policy),
                "accuracy": accuracy,
                "flight_distance": flight_distance,
            },
        )
        return {"policy": policy, "accuracy": accuracy, "flight_distance": flight_distance}


_DEFAULT_CACHE: Optional[PolicyCache] = None


def default_cache() -> PolicyCache:
    """The process-wide policy cache."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = PolicyCache()
    return _DEFAULT_CACHE

