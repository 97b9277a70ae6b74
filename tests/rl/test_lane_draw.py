"""The one-pass lane action draw against per-row ``Generator.choice``.

``sample_lane_actions`` draws every lane's exploration action at once by
copying ``choice(n, p=row)``: a row-wise cdf, one ``random()`` per lane in
lane order, and a count of cdf entries at or below the draw.  It takes that
pass only when ``choice`` would accept every row; otherwise every row goes
through ``sample_action_from``.  The serial loop it replaces called
``rng.choice`` per row, so actions, raised errors and every generator's
state must match that loop exactly.
"""

import numpy as np
import pytest

from repro.core.config import DroneScale
from repro.core.workloads import drone_agent_config
from repro.rl.lockstep import sample_lane_actions
from repro.rl.reinforce import ReinforceAgent

ACTIONS = 25
LANES = 12
#: ``Generator.choice``'s tolerance on a ``p`` sum.
ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _twin_lanes(seed, shared=()):
    """Two identical lane sets of tiny drone agents over fresh generators.

    Lanes listed in ``shared`` reuse lane 0's generator, as two agents built
    on one stream would.
    """
    config = drone_agent_config(DroneScale.tiny())
    twins = []
    for _ in range(2):
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(LANES)]
        for lane in shared:
            streams[lane] = streams[0]
        twins.append([ReinforceAgent(config, rng=stream) for stream in streams])
    return twins


def _softmax_rows(rng, count, scale):
    logits = rng.normal(size=(count, ACTIONS)) * scale
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exps / exps.sum(axis=1, keepdims=True)


def _serial(agents, probabilities):
    """The replaced loop: each row through its agent's ``choice``, in row order."""
    return np.array(
        [agent.rng.choice(len(row), p=row) for agent, row in zip(agents, probabilities)],
        dtype=np.int64,
    )


def _states(agents):
    return [agent.rng.bit_generator.state for agent in agents]


def _assert_same_draws(lanes, reference, probabilities, rows):
    """Draw for ``rows`` on both lane sets; actions or errors and states must match."""
    expected_error = None
    try:
        expected = _serial([reference[lane] for lane in rows], probabilities)
    except ValueError as error:
        expected_error = str(error)
    if expected_error is None:
        actions = sample_lane_actions([lanes[lane] for lane in rows], probabilities)
        assert actions.dtype == np.int64
        assert actions.tolist() == expected.tolist()
    else:
        with pytest.raises(ValueError) as raised:
            sample_lane_actions([lanes[lane] for lane in rows], probabilities)
        assert str(raised.value) == expected_error
    assert _states(lanes) == _states(reference)
    return expected_error


def _special_row(rng, kind):
    """One row of a kind ``choice`` treats at its edges."""
    row = _softmax_rows(rng, 1, 1.0)[0]
    if kind == "underflow":
        # exp underflows to 0 for all but a few actions.
        row = _softmax_rows(rng, 1, 900.0)[0]
    elif kind == "one_hot":
        row = np.zeros(ACTIONS)
        row[rng.integers(ACTIONS)] = 1.0
    elif kind == "negative_zero":
        row = _softmax_rows(rng, 1, 900.0)[0]
        row[row == 0.0] = -0.0
    elif kind == "sum_between_tolerances":
        # choice accepts the row, the one pass does not.
        row = row * (1.0 + 0.75 * ATOL)
    elif kind == "sum_off":
        row = row * (1.0 + 4.0 * ATOL)
    elif kind == "negative":
        row[rng.integers(ACTIONS)] = -1e-3
    elif kind == "nan":
        row[rng.integers(ACTIONS)] = np.nan
    return row


class TestLaneDrawMatchesChoice:
    def test_thousands_of_rows(self):
        rng = np.random.default_rng(3)
        lanes, reference = _twin_lanes(21)
        kinds = ["underflow", "one_hot", "negative_zero", "sum_between_tolerances"]
        rows_drawn = 0
        for step in range(400):
            rows = np.flatnonzero(rng.random(LANES) < 0.85)
            if rows.size == 0:
                continue
            probabilities = _softmax_rows(rng, rows.size, rng.choice([0.5, 3.0, 40.0]))
            if step % 3 == 0:
                probabilities[rng.integers(rows.size)] = _special_row(rng, rng.choice(kinds))
            assert _assert_same_draws(lanes, reference, probabilities, rows) is None
            rows_drawn += rows.size
        assert rows_drawn > 3000

    @pytest.mark.parametrize(
        "kind", ["underflow", "one_hot", "negative_zero", "sum_between_tolerances"]
    )
    def test_accepted_edge_rows(self, kind):
        rng = np.random.default_rng(5)
        lanes, reference = _twin_lanes(8)
        rows = np.arange(LANES)
        for _ in range(50):
            probabilities = _softmax_rows(rng, LANES, 2.0)
            probabilities[rng.integers(LANES)] = _special_row(rng, kind)
            assert _assert_same_draws(lanes, reference, probabilities, rows) is None

    def test_all_rows_one_hot(self):
        lanes, reference = _twin_lanes(4)
        probabilities = np.eye(ACTIONS)[np.arange(LANES) * 2]
        assert _assert_same_draws(lanes, reference, probabilities, np.arange(LANES)) is None

    @pytest.mark.parametrize("kind", ["sum_off", "negative", "nan"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_rejected_row_raises_after_the_same_draws(self, kind, position):
        rng = np.random.default_rng(9)
        lanes, reference = _twin_lanes(13)
        rows = np.arange(LANES)
        probabilities = _softmax_rows(rng, LANES, 2.0)
        index = {"first": 0, "middle": LANES // 2, "last": LANES - 1}[position]
        probabilities[index] = _special_row(rng, kind)
        assert _assert_same_draws(lanes, reference, probabilities, rows) is not None
        # The streams stay usable and in step after the error.
        probabilities = _softmax_rows(rng, LANES, 2.0)
        assert _assert_same_draws(lanes, reference, probabilities, rows) is None

    def test_lanes_sharing_one_generator(self):
        rng = np.random.default_rng(17)
        lanes, reference = _twin_lanes(30, shared=(3, 7))
        assert lanes[3].rng is lanes[0].rng and lanes[7].rng is lanes[0].rng
        for _ in range(200):
            rows = np.flatnonzero(rng.random(LANES) < 0.7)
            if rows.size == 0:
                continue
            probabilities = _softmax_rows(rng, rows.size, 3.0)
            assert _assert_same_draws(lanes, reference, probabilities, rows) is None
        probabilities = _softmax_rows(rng, LANES, 3.0)
        probabilities[5, 0] = np.nan
        assert _assert_same_draws(lanes, reference, probabilities, np.arange(LANES)) is not None


class TestLaneDrawGate:
    def _count_row_draws(self, monkeypatch):
        calls = []
        original = ReinforceAgent.sample_action_from

        def counted(agent, probabilities):
            calls.append(1)
            return original(agent, probabilities)

        monkeypatch.setattr(ReinforceAgent, "sample_action_from", counted)
        return calls

    def test_accepted_rows_take_the_one_pass(self, monkeypatch):
        calls = self._count_row_draws(monkeypatch)
        rng = np.random.default_rng(2)
        lanes, _ = _twin_lanes(6)
        probabilities = _softmax_rows(rng, LANES, 40.0)
        probabilities[0] = _special_row(rng, "negative_zero")
        probabilities[1] = _special_row(rng, "one_hot")
        sample_lane_actions(lanes, probabilities)
        assert calls == []

    @pytest.mark.parametrize("kind", ["sum_between_tolerances", "sum_off", "negative", "nan"])
    def test_one_doubtful_row_sends_every_row_through_choice(self, monkeypatch, kind):
        calls = self._count_row_draws(monkeypatch)
        rng = np.random.default_rng(2)
        lanes, _ = _twin_lanes(6)
        probabilities = _softmax_rows(rng, LANES, 3.0)
        probabilities[LANES - 1] = _special_row(rng, kind)
        try:
            sample_lane_actions(lanes, probabilities)
        except ValueError:
            pass
        assert len(calls) == LANES
