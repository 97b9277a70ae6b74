"""Tests for the DMR/TMR redundancy cost profiles."""

import pytest

from repro.mitigation import PROTECTION_SCHEMES
from repro.mitigation.redundancy import RedundancyScheme


class TestSchemes:
    def test_registry_contents(self):
        assert set(PROTECTION_SCHEMES) == {"baseline", "detection", "dmr", "tmr"}

    def test_replica_counts(self):
        assert PROTECTION_SCHEMES["dmr"].compute_replicas == 2
        assert PROTECTION_SCHEMES["tmr"].compute_replicas == 3

    def test_detection_overhead_below_paper_bound(self):
        assert PROTECTION_SCHEMES["detection"].runtime_overhead < 0.027 + 1e-9

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            RedundancyScheme("bad", compute_replicas=0, runtime_overhead=0.0,
                             detects=False, corrects=False)
