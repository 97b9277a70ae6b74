"""Every artifact's tiny-scale payload matches its committed sha256.

A failure names the artifacts whose bytes moved.  After a deliberate
behaviour change, rewrite the pin with ``python tests/golden/golden.py`` and
review the moved list.  On a different Python or numpy the test skips and
names the difference, because BLAS and ufunc rounding may move the bytes.
"""

import pytest

from golden import compute_digests, load_pin, moved_artifacts, toolchain_drift


def test_every_artifact_matches_its_golden_digest(tmp_path, policy_cache):
    pin = load_pin()
    drift = toolchain_drift(pin)
    if drift is not None:
        pytest.skip(f"toolchain differs from tests/golden/digests.json: {drift}")
    digests = compute_digests(tmp_path / "out", policy_cache.cache_dir)
    assert moved_artifacts(pin["artifacts"], digests) == {}
