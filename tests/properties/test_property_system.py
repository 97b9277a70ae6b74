"""Property-based tests for aggregation, fault injection and mitigation invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults import FaultInjector
from repro.federated import AlphaSchedule, smoothing_average
from repro.federated.aggregation import average_states
from repro.mitigation import RangeAnomalyDetector

STATE_VALUES = hnp.arrays(
    dtype=np.float64,
    shape=(6,),
    elements=st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(states=st.lists(STATE_VALUES, min_size=2, max_size=6),
       alpha=st.floats(0.05, 1.0))
def test_smoothing_average_is_mean_preserving_and_bounded(states, alpha):
    dicts = [{"w": s} for s in states]
    mixed = smoothing_average(dicts, alpha=alpha)
    # Mean preservation.
    np.testing.assert_allclose(
        average_states(mixed)["w"], average_states(dicts)["w"], atol=1e-9
    )
    # Convex combination: every mixed value stays within the per-element min/max.
    stacked = np.stack(states)
    lower, upper = stacked.min(axis=0) - 1e-9, stacked.max(axis=0) + 1e-9
    for state in mixed:
        assert (state["w"] >= lower).all() and (state["w"] <= upper).all()


@settings(max_examples=40, deadline=None)
@given(round_index=st.integers(0, 200), agent_count=st.integers(2, 16),
       initial_alpha=st.floats(0.1, 1.0), decay=st.floats(0.5, 1.0))
def test_alpha_schedule_bounded(round_index, agent_count, initial_alpha, decay):
    schedule = AlphaSchedule(initial_alpha=initial_alpha, decay=decay)
    alpha = schedule.alpha(round_index, agent_count)
    assert 1.0 / agent_count - 1e-12 <= alpha <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    values=hnp.arrays(dtype=np.float64, shape=st.integers(8, 128),
                      elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)),
    ber=st.floats(0.0, 0.2),
    seed=st.integers(0, 1000),
)
def test_injector_preserves_shape_and_identity_at_zero_ber(values, ber, seed):
    injector = FaultInjector(datatype="Q(1,7,8)", rng=seed)
    corrupted = injector.corrupt_array(values, ber)
    assert corrupted.shape == values.shape
    if ber == 0.0:
        np.testing.assert_array_equal(corrupted, values)
    # Whatever the corruption, the decoded values stay within the format range.
    assert np.abs(corrupted).max() <= 2 ** 7 + 1


@settings(max_examples=30, deadline=None)
@given(
    values=hnp.arrays(dtype=np.float64, shape=(40,),
                      elements=st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)),
    ber=st.floats(0.0, 0.1),
    seed=st.integers(0, 500),
)
def test_anomaly_repair_never_worsens_range(values, ber, seed):
    state = {"w": values}
    detector = RangeAnomalyDetector(margin=0.1)
    detector.calibrate(state)
    injector = FaultInjector(datatype="Q(1,10,5)", rng=seed)
    corrupted = injector.corrupt_state_dict(state, ber)
    repaired, repaired_count = detector.repair(corrupted)
    assert repaired_count >= 0
    limit = max(abs(values.min()), abs(values.max()), detector.ranges["w"].margin) * 1.1 + 1e-9
    assert np.abs(repaired["w"]).max() <= limit
    # Repairing an already-repaired state changes nothing.
    repaired_again, second_count = detector.repair(repaired)
    assert second_count == 0
    np.testing.assert_array_equal(repaired_again["w"], repaired["w"])

