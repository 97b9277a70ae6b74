"""End-to-end integration tests across the full FRL-FI stack."""

from repro.core.fault_callbacks import make_training_fault
from repro.core.workloads import (
    build_drone_frl_system,
    build_gridworld_frl_system,
    gridworld_environments,
)
from repro.core.experiments.inference_utils import success_rate_over_envs
from repro.core.experiments.overhead import overhead_plan
from repro.faults import FaultInjector
from repro.mitigation import RangeAnomalyDetector, ServerCheckpointCallback


class TestGridworldEndToEnd:
    def test_fault_free_training_reaches_high_success(self, tiny_gridworld_policies):
        # The session-scoped tiny policy (2 agents, 50 episodes) will not match
        # the paper's ~98 % but must clearly beat a random walk.
        assert tiny_gridworld_policies["success_rate"] >= 0.3

    def test_training_with_and_without_server_fault(self, tiny_gridworld_scale):
        clean = build_gridworld_frl_system(tiny_gridworld_scale)
        clean.train(tiny_gridworld_scale.episodes)
        clean_sr = clean.average_success_rate(attempts=5)

        faulty = build_gridworld_frl_system(tiny_gridworld_scale)
        fault = make_training_fault(
            "server", bit_error_rate=0.05,
            injection_episode=tiny_gridworld_scale.episodes - 5,
            datatype="Q(1,2,5)", rng=0,
        )
        faulty.train(tiny_gridworld_scale.episodes, callbacks=[fault])
        faulty_sr = faulty.average_success_rate(attempts=5)
        # A severe late fault cannot help; allow equality for noise.
        assert faulty_sr <= clean_sr + 0.21

    def test_inference_fault_and_anomaly_repair(self, tiny_gridworld_scale, tiny_gridworld_policies):
        policy = tiny_gridworld_policies["consensus"]
        envs = gridworld_environments(tiny_gridworld_scale)
        detector = RangeAnomalyDetector()
        detector.calibrate(policy)
        injector = FaultInjector(datatype="Q(1,2,5)", rng=7)
        corrupted = injector.corrupt_state_dict(policy, 0.02)
        repaired, _count = detector.repair(corrupted)

        def success(state, seed):
            return success_rate_over_envs(tiny_gridworld_scale, state, envs, 4, rng=seed)

        clean_sr = success(policy, 0)
        repaired_sr = success(repaired, 0)
        corrupted_sr = success(corrupted, 0)
        assert 0.0 <= corrupted_sr <= 1.0
        assert repaired_sr >= corrupted_sr - 0.3
        assert clean_sr >= corrupted_sr - 0.1

    def test_checkpoint_protected_training_completes(self, tiny_gridworld_scale):
        system = build_gridworld_frl_system(tiny_gridworld_scale)
        fault = make_training_fault("server", 0.02,
                                    injection_episode=tiny_gridworld_scale.episodes // 2,
                                    datatype="Q(1,2,5)", rng=1)
        protection = ServerCheckpointCallback(agent_count=system.agent_count,
                                              consecutive_episodes=3, checkpoint_interval=2)
        log = system.train(tiny_gridworld_scale.episodes, callbacks=[fault, protection])
        assert log.episodes == tiny_gridworld_scale.episodes
        assert protection.store.has_checkpoint


class TestDroneEndToEnd:
    def test_pretrained_policy_flies(self, tiny_drone_policy):
        assert tiny_drone_policy["flight_distance"] > 0.0
        assert tiny_drone_policy["accuracy"] > 0.2

    def test_fine_tuning_with_agent_fault(self, tiny_drone_scale, tiny_drone_policy):
        system = build_drone_frl_system(tiny_drone_scale, initial_state=tiny_drone_policy["policy"])
        fault = make_training_fault("agent", 1e-2, injection_episode=0,
                                    datatype=tiny_drone_scale.datatype, rng=0)
        log = system.train(tiny_drone_scale.fine_tune_episodes, callbacks=[fault])
        assert log.episodes == tiny_drone_scale.fine_tune_episodes
        assert system.average_flight_distance() >= 0.0


class TestObservationChecks:
    def test_fig9_observations_hold(self):
        result = overhead_plan().run_serial()
        loss = {(row[0], row[1]): row[5] for row in result.rows}
        # The proposed detection scheme is the cheapest protection everywhere,
        # and redundancy hurts the micro-UAV far more than the mini-UAV.
        for platform in ("AirSim drone", "DJI Spark"):
            assert loss[(platform, "dmr")] > loss[(platform, "detection")]
            assert loss[(platform, "tmr")] > loss[(platform, "dmr")]
        assert loss[("DJI Spark", "tmr")] > loss[("AirSim drone", "tmr")]
