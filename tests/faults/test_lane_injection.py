"""``corrupt_lanes``: one lane per injector, bitwise equal to N serial calls.

The lane entry point must reproduce, for every lane, exactly what
``injectors[i].corrupt_array(values[i], ...)`` would have produced — same RNG
draws on each injector's own stream, same history records, same bytes.
"""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, corrupt_lanes


def _paired_injectors(count, datatype="int8", model=None, seed=1234):
    """Two injector lists with identical per-lane streams (serial vs batched)."""
    streams = np.random.SeedSequence(seed).spawn(count)
    make = lambda s: FaultInjector(  # noqa: E731
        datatype, model=model, rng=np.random.default_rng(s)
    )
    return [make(s) for s in streams], [make(s) for s in streams]


class TestLaneIdentity:
    @pytest.mark.parametrize("datatype", ["int8", "q1_7_8"])
    @pytest.mark.parametrize("ber", [0.0, 1e-4, 1e-2, 0.3])
    @pytest.mark.parametrize("lanes", [1, 3, 7])
    def test_bitwise_identity_with_serial_loop(self, datatype, ber, lanes):
        serial_inj, batch_inj = _paired_injectors(lanes, datatype)
        values = np.random.default_rng(5).normal(size=(lanes, 4, 9))
        serial = np.stack(
            [inj.corrupt_array(values[i], ber) for i, inj in enumerate(serial_inj)]
        )
        batched = corrupt_lanes(batch_inj, values, ber)
        assert serial.tobytes() == batched.tobytes()

    def test_histories_and_streams_advance_identically(self):
        serial_inj, batch_inj = _paired_injectors(4)
        values = np.random.default_rng(8).normal(size=(4, 6, 6))
        for i, inj in enumerate(serial_inj):
            inj.corrupt_array(values[i], 5e-3)
        corrupt_lanes(batch_inj, values, 5e-3)
        for a, b in zip(serial_inj, batch_inj):
            assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
            # The generators are in the same state: future draws coincide.
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_stuck_at_models_stack_too(self):
        serial_inj, batch_inj = _paired_injectors(3, model="stuck-at-1", seed=9)
        values = np.random.default_rng(9).normal(size=(3, 6))
        serial = np.stack(
            [inj.corrupt_array(values[i], 0.1) for i, inj in enumerate(serial_inj)]
        )
        assert corrupt_lanes(batch_inj, values, 0.1).tobytes() == serial.tobytes()

    def test_heterogeneous_datatypes_fall_back_serially(self):
        streams = np.random.SeedSequence(77).spawn(2)
        si = [
            FaultInjector("int8", rng=np.random.default_rng(streams[0])),
            FaultInjector("q1_7_8", rng=np.random.default_rng(streams[1])),
        ]
        bi = [
            FaultInjector("int8", rng=np.random.default_rng(streams[0])),
            FaultInjector("q1_7_8", rng=np.random.default_rng(streams[1])),
        ]
        values = np.random.default_rng(7).normal(size=(2, 5, 5))
        serial = np.stack(
            [inj.corrupt_array(values[i], 0.05) for i, inj in enumerate(si)]
        )
        assert corrupt_lanes(bi, values, 0.05).tobytes() == serial.tobytes()

    def test_zero_fault_lanes_are_plain_copies(self):
        _, injectors = _paired_injectors(2)
        values = np.random.default_rng(3).normal(size=(2, 4))
        out = corrupt_lanes(injectors, values, 0.0)
        assert out.tobytes() == values.tobytes()
        assert out is not values
        assert all(record.flipped_bits == 0 for inj in injectors for record in inj.history)

    def test_lane_count_mismatch_rejected(self):
        _, injectors = _paired_injectors(3)
        with pytest.raises(ValueError, match="lane"):
            corrupt_lanes(injectors, np.zeros((2, 4)), 0.1)
