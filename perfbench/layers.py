"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the ``src/repro`` packages.  :data:`TARGETS` names the public
entry points of each layer that get a span; :data:`METRICS` derives every
per-layer metric from the span summary of one set-up or one campaign
repetition.  Per-``Linear``/activation calls are deliberately not wrapped:
they are too many and would swamp the measurement.

Metric kinds: ``total`` is the inclusive time of the outermost spans,
``self`` the time not covered by child spans, ``calls`` the outermost call
count, ``amount`` the summed amounts (lanes, bits, values) and ``per_call``
amount divided by calls.
"""

from __future__ import annotations

import importlib
from typing import Dict

from spans import Tracer

SETUP, CAMPAIGN = "setup", "campaign"

#: Name of the span around each plan builder call (recorded by the benchmark).
PLAN_BUILD = "runtime.plan_build"
#: Root span of one set-up or campaign repetition.
ROOT = "root"


def _bits_before(args) -> int:
    return sum(injector.total_injected_bits() for injector in _injectors(args))


def _bits_after(token, args, _result) -> int:
    return _bits_before(args) - token


def _injectors(args) -> list:
    from repro.faults.injector import FaultInjector

    return [args[0]] if isinstance(args[0], FaultInjector) else list(args[0])


def _live_lanes(args) -> int:
    return int((~args[0].done).sum())


def _token(token, _args, _result) -> int:
    return token


def _lane_episodes(_token, _args, result) -> int:
    return sum(len(lane) for lane in result)


def _length(_token, _args, result) -> int:
    return len(result)


def _repaired(_token, _args, result) -> int:
    return int(result[1])


def _nothing(_token, _args, _result) -> int:
    return 0


# (module, class or None for a module-level function, attribute, span, hooks)
TARGETS = (
    ("repro.runtime.runner", "CampaignRunner", "run_plan", "runtime.run_plan", None),
    ("repro.runtime.runner", None, "_run_cell_batch", "runtime.cell_batch", None),
    ("repro.runtime.journal", "CampaignJournal", "record", "runtime.journal_record", None),
    ("repro.runtime.journal", "CampaignJournal", "load", "runtime.journal_load", None),
    ("repro.runtime.store", "ResultStore", "ingest", "runtime.store_ingest", None),
    ("repro.runtime.store", "ResultStore", "query_cells", "runtime.store_query", None),
    ("repro.runtime.residency", None, "resolve_policy_kwargs", "runtime.residency_resolve", None),
    ("repro.core.pretrained", "PolicyCache", "gridworld_policies", "core.pretrain", None),
    ("repro.core.pretrained", "PolicyCache", "gridworld_single_policy", "core.pretrain", None),
    ("repro.core.pretrained", "PolicyCache", "drone_policy", "core.pretrain", None),
    ("repro.rl.pretrain", None, "behaviour_clone", "rl.behaviour_clone", None),
    ("repro.federated.system", "FRLSystem", "train", "federated.train", None),
    ("repro.federated.single_agent", "SingleAgentSystem", "train", "federated.train", None),
    ("repro.federated.lockstep", None, "train_group_lockstep", "federated.train", None),
    ("repro.federated.system", "FRLSystem", "communication_round", "federated.comm_round", None),
    ("repro.federated.server", "FederatedServer", "aggregate", "federated.aggregate", None),
    ("repro.rl.qlearning", "QLearningAgent", "run_episode", "rl.run_episode", None),
    ("repro.rl.reinforce", "ReinforceAgent", "run_episode", "rl.run_episode", None),
    ("repro.rl.lockstep", None, "train_episodes_lockstep", "rl.lockstep_train",
     (None, _length)),
    ("repro.rl.replay", "ReplayBuffer", "sample_arrays", "rl.replay_sample", None),
    ("repro.rl.replay", "ReplayBuffer", "sample", "rl.replay_sample", None),
    ("repro.rl.rollout", None, "greedy_episode", "rl.evaluate", None),
    ("repro.rl.rollout", None, "evaluate_episodes_lockstep", "rl.evaluate",
     (None, _lane_episodes)),
    ("repro.nn.module", "Sequential", "forward", "nn.forward", None),
    ("repro.nn.batched", "StackedPolicy", "forward", "nn.forward", None),
    ("repro.nn.module", "Sequential", "backward", "nn.backward", None),
    ("repro.nn.optim", "Adam", "step", "nn.optim_step", None),
    ("repro.nn.optim", "SGD", "step", "nn.optim_step", None),
    ("repro.nn.conv", None, "im2col", "nn.im2col", None),
    ("repro.nn.conv", "Conv2d", "forward", "nn.conv", None),
    ("repro.nn.conv", "Conv2d", "backward", "nn.conv", None),
    ("repro.nn.batched", "StackedPolicy", "_conv_forward", "nn.conv", None),
    ("repro.envs.gridworld", "GridWorldEnv", "step", "envs.step", None),
    ("repro.envs.dronenav", "DroneNavEnv", "step", "envs.step", None),
    ("repro.envs.gridworld", "GridWorldVecEnv", "step_batch", "envs.step", (_live_lanes, _token)),
    ("repro.envs.dronenav", "DroneNavVecEnv", "step_batch", "envs.step", (_live_lanes, _token)),
    ("repro.envs.dronenav", "DroneWorld", "ray_depths", "envs.ray_depths", None),
    ("repro.faults.injector", "FaultInjector", "corrupt_array", "faults.corrupt",
     (_bits_before, _bits_after)),
    ("repro.faults.injector", "FaultInjector", "corrupt_state_dict", "faults.corrupt",
     (_bits_before, _bits_after)),
    ("repro.faults.injector", "FaultInjector", "corrupt_lanes", "faults.corrupt",
     (_bits_before, _bits_after)),
    ("repro.quant.fixedpoint", "FixedPointFormat", "encode", "quant.codec", None),
    ("repro.quant.fixedpoint", "FixedPointFormat", "decode", "quant.codec", None),
    ("repro.quant.int8", "Int8AffineCodec", "quantize", "quant.codec", None),
    ("repro.quant.int8", "Int8AffineCodec", "dequantize", "quant.codec", None),
    ("repro.mitigation.anomaly", "RangeAnomalyDetector", "calibrate", "mitigation.detector",
     (None, _nothing)),
    ("repro.mitigation.anomaly", "RangeAnomalyDetector", "repair", "mitigation.detector",
     (None, _repaired)),
)

# metric -> (unit, better, phase, kind, span names)
METRICS = {
    "runtime.plan_build_s": ("s", "lower", SETUP, "self", (PLAN_BUILD,)),
    "runtime.run_plan_self_s": ("s", "lower", CAMPAIGN, "self", ("runtime.run_plan",)),
    "runtime.groups": ("count", "lower", CAMPAIGN, "calls", ("runtime.group",)),
    "runtime.group_lanes_mean": ("cells", "higher", CAMPAIGN, "per_call", ("runtime.group",)),
    "runtime.journal_record_s": ("s", "lower", CAMPAIGN, "total", ("runtime.journal_record",)),
    "runtime.journal_records": ("count", "lower", CAMPAIGN, "calls", ("runtime.journal_record",)),
    "runtime.journal_load_s": ("s", "lower", CAMPAIGN, "total", ("runtime.journal_load",)),
    "runtime.merge_s": ("s", "lower", CAMPAIGN, "total", ("runtime.merge",)),
    "runtime.store_ingest_s": ("s", "lower", CAMPAIGN, "total", ("runtime.store_ingest",)),
    "runtime.store_query_s": ("s", "lower", CAMPAIGN, "total", ("runtime.store_query",)),
    "runtime.residency_resolve_s": (
        "s", "lower", CAMPAIGN, "total", ("runtime.residency_resolve",)),
    "core.pretrain_s": ("s", "lower", SETUP, "total", ("core.pretrain",)),
    "rl.behaviour_clone_s": ("s", "lower", SETUP, "total", ("rl.behaviour_clone",)),
    "federated.train_self_s": ("s", "lower", CAMPAIGN, "self", ("federated.train",)),
    "federated.comm_rounds": ("count", "lower", CAMPAIGN, "calls", ("federated.comm_round",)),
    "federated.comm_round_s": ("s", "lower", CAMPAIGN, "total", ("federated.comm_round",)),
    "federated.aggregate_s": ("s", "lower", CAMPAIGN, "total", ("federated.aggregate",)),
    "rl.episodes": ("count", "lower", CAMPAIGN, "amount", ("rl.run_episode", "rl.lockstep_train")),
    # Q-learning and its replay buffer run in the GridWorld baseline
    # pretraining, so these three are measured in the set-up phase.
    "rl.run_episode_self_s": ("s", "lower", SETUP, "self", ("rl.run_episode",)),
    "rl.replay_sample_s": ("s", "lower", SETUP, "total", ("rl.replay_sample",)),
    "rl.replay_samples": ("count", "lower", SETUP, "calls", ("rl.replay_sample",)),
    "rl.lockstep_train_self_s": ("s", "lower", CAMPAIGN, "self", ("rl.lockstep_train",)),
    "rl.evaluate_s": ("s", "lower", CAMPAIGN, "total", ("rl.evaluate",)),
    "rl.eval_episodes": ("count", "lower", CAMPAIGN, "amount", ("rl.evaluate",)),
    "nn.forward_s": ("s", "lower", CAMPAIGN, "total", ("nn.forward",)),
    "nn.forward_calls": ("count", "lower", CAMPAIGN, "calls", ("nn.forward",)),
    "nn.backward_s": ("s", "lower", CAMPAIGN, "total", ("nn.backward",)),
    "nn.backward_calls": ("count", "lower", CAMPAIGN, "calls", ("nn.backward",)),
    "nn.optim_step_s": ("s", "lower", CAMPAIGN, "total", ("nn.optim_step",)),
    "nn.optim_steps": ("count", "lower", CAMPAIGN, "calls", ("nn.optim_step",)),
    "nn.im2col_s": ("s", "lower", CAMPAIGN, "total", ("nn.im2col",)),
    "nn.im2col_calls": ("count", "lower", CAMPAIGN, "calls", ("nn.im2col",)),
    "nn.conv_s": ("s", "lower", CAMPAIGN, "total", ("nn.conv",)),
    "envs.steps": ("count", "lower", CAMPAIGN, "amount", ("envs.step",)),
    "envs.step_s": ("s", "lower", CAMPAIGN, "total", ("envs.step",)),
    # The lockstep campaign steps its drones without DroneWorld.ray_depths;
    # the serial rollouts of the drone baseline set-up call it.
    "envs.ray_depths_s": ("s", "lower", SETUP, "total", ("envs.ray_depths",)),
    "envs.ray_depths_calls": ("count", "lower", SETUP, "calls", ("envs.ray_depths",)),
    "faults.corrupt_s": ("s", "lower", CAMPAIGN, "total", ("faults.corrupt",)),
    "faults.corrupt_calls": ("count", "lower", CAMPAIGN, "calls", ("faults.corrupt",)),
    "faults.bits_flipped": ("count", "lower", CAMPAIGN, "amount", ("faults.corrupt",)),
    "quant.codec_s": ("s", "lower", CAMPAIGN, "total", ("quant.codec",)),
    "mitigation.detector_s": ("s", "lower", CAMPAIGN, "total", ("mitigation.detector",)),
    "mitigation.repaired_values": (
        "count", "lower", CAMPAIGN, "amount", ("mitigation.detector",)),
    # Self time of the campaign root: traced campaign_s minus every layer's self time.
    "trace.unattributed_s": ("s", "lower", CAMPAIGN, "self", (ROOT,)),
    # Filled in by the run from traced against untraced campaign_s.
    "trace.overhead_frac": ("ratio", "lower", CAMPAIGN, None, ()),
}


def layer_metrics(summary: dict, phase: str) -> Dict[str, float]:
    """The ``phase`` metrics of one repetition's span summary."""
    values = {}
    for metric, (_unit, _better, metric_phase, kind, names) in METRICS.items():
        if metric_phase != phase or kind is None:
            continue
        entries = [summary[name] for name in names if name in summary]
        if kind == "per_call":
            calls = sum(entry["calls"] for entry in entries)
            values[metric] = sum(entry["amount"] for entry in entries) / calls if calls else 0.0
        else:
            field = {"total": "total_s", "self": "self_s"}.get(kind, kind)
            values[metric] = sum(entry[field] for entry in entries)
    return values


def install(tracer: Tracer) -> None:
    """Wrap every target and the registered group runners."""
    for module_name, class_name, attr, name, hooks in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        before, after = hooks or (None, None)
        tracer.patch(owner, attr, name, before, after)
    _install_group_runners(tracer)


def _install_group_runners(tracer: Tracer) -> None:
    from repro.runtime import vectorize

    for fn in vectorize.registered_functions():
        runner = vectorize.group_runner_for(fn)
        vectorize.register_group_runner(
            fn, tracer.traced(runner, "runtime.group", after=lambda _t, args, _r: len(args[0]))
        )
        tracer.on_restore(
            lambda fn=fn, runner=runner: vectorize.register_group_runner(fn, runner),
            lambda fn=fn, runner=runner: vectorize.group_runner_for(fn) is runner,
        )
