"""The benchmark's workloads and the checks that their payloads are right.

Each workload builds fault-injection campaign plans through the public plan
builders in ``repro.core.experiments`` and runs them through
``repro.runtime.runner.CampaignRunner``, always with ``vectorize="auto"``.
A workload seed expands into ``draws`` scale seeds (``seed * draws + k``);
each draw is an independent baseline and plan set, so one run averages over
several draws instead of resting on one.  The program only ever sees the
scales and plans built from the seed.

``moves`` records, per workload, which per-layer metrics (see
``layers.METRICS``) should move its ``campaign_s`` and ``setup_s``: those
that took at least 1% of the traced phase at the benchmark's scales, plus
the group-runner counts.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DroneScale, GridWorldScale
from repro.core.experiments.drone_training import drone_count_plan
from repro.core.experiments.gridworld_inference import gridworld_inference_plan
from repro.core.experiments.mitigation_experiments import inference_mitigation_plan
from repro.core.pretrained import PolicyCache
from repro.runtime.cells import CampaignPlan
from repro.runtime.runner import CampaignRunner
from repro.runtime.store import ResultStore
from repro.utils.serialization import NumpyJSONEncoder

PINS_PATH = Path(__file__).resolve().parent / "digests.json"

LabelledPlans = List[Tuple[str, CampaignPlan]]


def _drone_scale(seed: int) -> DroneScale:
    # The tiny preset with a short flight horizon, so a clean policy flies
    # the whole horizon whatever its seed and the work per cell stays level.
    return replace(DroneScale.tiny(), fine_tune_episodes=3, max_steps=40, seed=seed)


def _drone_train_lockstep(seed: int, cache: PolicyCache) -> List[CampaignPlan]:
    return [drone_count_plan(scale=_drone_scale(seed), drone_counts=(2, 4), cache=cache)]


def _campaign_journal(seed: int, cache: PolicyCache) -> List[CampaignPlan]:
    # How long a tiny GridWorld policy wanders depends on its seed (some
    # seeds step 20% less), so the cells are spread over several draws.
    scale = GridWorldScale.tiny().with_seed(seed)
    return [
        gridworld_inference_plan(scale=scale, cache=cache, repeats=5),
        inference_mitigation_plan("gridworld", scale=scale, cache=cache, repeats=6),
    ]


@dataclass(frozen=True)
class Workload:
    """One named input of the benchmark."""

    name: str
    why: str
    moves: Dict[str, Tuple[str, ...]]
    build: Callable[[int, PolicyCache], List[CampaignPlan]]
    draws: int = 1
    #: Also resume over the complete journals and round-trip them through a
    #: result store.
    round_trip: bool = False

    def scale_seeds(self, seed: int) -> List[int]:
        """The scale seed of every draw of workload seed ``seed``."""
        return [seed * self.draws + draw for draw in range(self.draws)]

    def label(self, plan: CampaignPlan, draw: int) -> str:
        """The journal/store label of ``plan`` in ``draw``."""
        return plan.experiment_id if self.draws == 1 else f"{plan.experiment_id}.d{draw}"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="drone-train-lockstep",
            why="Fig. 6a drone-count sweep: the one workload on the vectorized group "
            "runner; stacked conv forward/backward, im2col and batched env steps.",
            moves={
                "campaign_s": (
                    "runtime.groups", "runtime.group_lanes_mean", "rl.lockstep_train_self_s",
                    "nn.forward_s", "nn.backward_s", "nn.optim_step_s", "nn.im2col_s",
                    "nn.conv_s", "envs.step_s",
                ),
                "setup_s": ("core.pretrain_s", "rl.behaviour_clone_s", "envs.ray_depths_s"),
            },
            build=_drone_train_lockstep,
            draws=3,
        ),
        Workload(
            name="campaign-journal",
            why="Fig. 4 plus Fig. 8a at tiny scale: 176 small serial cells in 4 draws "
            "with fsynced journals, a resume pass and a store round trip.",
            moves={
                "campaign_s": (
                    "nn.forward_s", "envs.step_s", "rl.evaluate_s", "faults.corrupt_s",
                    "runtime.journal_record_s", "quant.codec_s",
                ),
                "setup_s": (
                    "core.pretrain_s", "rl.run_episode_self_s", "rl.replay_sample_s",
                ),
            },
            build=_campaign_journal,
            draws=4,
            round_trip=True,
        ),
    )
}


# ------------------------------------------------------------------ execution
@dataclass
class Outcome:
    """What one campaign repetition produced (checked outside the timing)."""

    #: Wall seconds of each piece: one per plan, plus resume and store.
    seconds: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    resumed: Dict[str, object] = field(default_factory=dict)
    resume_executed: Dict[str, int] = field(default_factory=dict)
    store_rows: Dict[str, list] = field(default_factory=dict)


def execute(
    workload: Workload,
    plans: LabelledPlans,
    work_dir: Path,
    vectorize: str = "auto",
    before_piece: Callable[[], None] = lambda: None,
) -> Outcome:
    """Run the campaign: execute and merge every plan, timing each piece.

    Round-trip workloads then resume over the complete journals and
    round-trip the journals through a result store.  ``before_piece`` runs,
    untimed, before each piece.
    """
    journal_dir = work_dir / "journals"

    def runner(resume: bool = False) -> CampaignRunner:
        return CampaignRunner(
            workers=1,
            batch_size=1,
            journal_dir=journal_dir,
            resume=resume,
            vectorize=vectorize,
        )

    outcome = Outcome()
    first = runner()
    for label, plan in plans:
        before_piece()
        started = time.perf_counter()
        outcome.results[label] = first.run_plan(plan, first.journal_for(plan, label))
        outcome.seconds[label] = time.perf_counter() - started
    if workload.round_trip:
        before_piece()
        started = time.perf_counter()
        again = runner(resume=True)
        for label, plan in plans:
            journal = again.journal_for(plan, label)
            outcome.resumed[label] = again.run_plan(plan, journal)
            # load() is cached: it is what the resume pass found complete.
            outcome.resume_executed[label] = plan.cell_count - len(journal.load())
        outcome.seconds["resume"] = time.perf_counter() - started
        before_piece()
        started = time.perf_counter()
        with ResultStore(work_dir / "store.sqlite") as store:
            store.ingest(journal_dir)
            for label, _plan in plans:
                outcome.store_rows[label] = store.query_cells(label)[1]
        outcome.seconds["store"] = time.perf_counter() - started
    return outcome


# ---------------------------------------------------------------- correctness
def payload_digest(results: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of every label's ``as_dict()`` payload."""
    canonical = json.dumps(
        {label: result.as_dict() for label, result in results.items()},
        sort_keys=True,
        separators=(",", ":"),
        cls=NumpyJSONEncoder,
    )
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()


def check(
    workload: Workload, plans: LabelledPlans, outcome: Outcome, expected: Optional[str]
) -> Tuple[int, int, str]:
    """Check one repetition; returns ``(attempted, failed, digest)``.

    Ops are the cells run, the payload digest check against ``expected``
    (none for the first repetition of an unpinned seed, whose digest becomes
    the reference) and, for round-trip workloads, one resume op and one store op
    per label.
    """
    digest = payload_digest(outcome.results)
    attempted = sum(plan.cell_count for _label, plan in plans) + 1
    failed = int(expected is not None and digest != expected)
    if workload.round_trip:
        for label, plan in plans:
            single = {label: outcome.results[label]}
            resumed_ok = outcome.resume_executed[label] == 0 and payload_digest(
                {label: outcome.resumed[label]}
            ) == payload_digest(single)
            rows = outcome.store_rows[label]
            stored_ok = len(rows) == plan.cell_count and payload_digest(
                {label: plan.merge([row[2] for row in rows])}
            ) == payload_digest(single)
            attempted += 2
            failed += int(not resumed_ok) + int(not stored_ok)
    return attempted, failed, digest


def toolchain() -> Dict[str, str]:
    """The versions a payload digest depends on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def pinned_digest(workload: str, seed: int) -> Tuple[Optional[str], str]:
    """The pinned digest for ``(workload, seed)`` and why it is (not) used."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf8"))
    digest = pins["workloads"].get(workload, {}).get(str(seed))
    if digest is None:
        return None, "seed not pinned: checked for repeatability only"
    if {key: pins[key] for key in toolchain()} != toolchain():
        return None, f"toolchain drift from the pin ({pins['python']}, numpy {pins['numpy']})"
    return digest, "pinned"
