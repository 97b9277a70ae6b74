"""Golden payload digests: an absolute pin on every artifact's bytes.

``digests.json`` holds, per artifact, the sha256 of the ``<id>.json`` file
that ``repro-campaign all --scale tiny --output DIR`` writes, plus the Python
and numpy versions the digests were taken with.  Mode-vs-mode identity checks
(workers, vectorize, shards) cannot see a change that moves every mode
together; this pin can.

Rewrite the pin after a deliberate behaviour change, from the repository
root, and review which artifacts it reports as moved:

    PYTHONPATH=src python tests/golden/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np

PIN_PATH = Path(__file__).resolve().parent / "digests.json"
COMMAND = ["all", "--scale", "tiny"]


def toolchain() -> Dict[str, str]:
    """The versions the pinned bytes depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def load_pin() -> dict:
    """The committed pin: toolchain header plus ``artifacts`` id -> sha256."""
    return json.loads(PIN_PATH.read_text(encoding="utf8"))


def toolchain_drift(pin: dict) -> Optional[str]:
    """Why this interpreter cannot reproduce the pin, or ``None`` if it can."""
    here = toolchain()
    moved = [f"{key} {pin[key]} pinned, {here[key]} here" for key in here if pin[key] != here[key]]
    return "; ".join(moved) or None


def compute_digests(output_dir: Path, cache_dir: Path) -> Dict[str, str]:
    """Run every artifact through the campaign CLI; return id -> sha256 of its JSON."""
    from repro.runtime.cli import main

    argv = [*COMMAND, "--output", str(output_dir), "--cache-dir", str(cache_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(argv)
    if exit_code != 0:
        raise RuntimeError(f"repro-campaign {' '.join(argv)} exited {exit_code}")
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(output_dir).glob("*.json"))
    }


def moved_artifacts(old: Dict[str, str], new: Dict[str, str]) -> Dict[str, str]:
    """Artifact id -> how its digest changed between two digest maps."""
    changes = {}
    for name in sorted(set(old) | set(new)):
        if name not in new:
            changes[name] = "removed"
        elif name not in old:
            changes[name] = "added"
        elif old[name] != new[name]:
            changes[name] = "changed"
    return changes


def main() -> int:
    """Recompute the digests from a cold policy cache, rewrite the pin, report what moved."""
    with tempfile.TemporaryDirectory() as scratch:
        digests = compute_digests(Path(scratch) / "out", Path(scratch) / "cache")
    old = load_pin()["artifacts"] if PIN_PATH.exists() else {}
    pin = {
        **toolchain(),
        "command": "repro-campaign " + " ".join(COMMAND) + " --output DIR",
        "artifacts": digests,
    }
    PIN_PATH.write_text(json.dumps(pin, indent=2) + "\n", encoding="utf8")
    changes = moved_artifacts(old, digests)
    for name, change in changes.items():
        print(f"{name}: {change}")
    print(f"{len(changes)} of {len(digests)} artifact(s) moved; wrote {PIN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
