"""Shared utilities for the FRL-FI reproduction.

This package provides the small, dependency-free building blocks used by every
other subsystem: deterministic random-number management, bit-level helpers for
integer tensor representations, and plain-text rendering of tables and
heatmaps.
"""

from repro.utils.rng import RngFactory, as_rng, spawn_rngs
from repro.utils.bitops import (
    count_ones,
    flip_bits,
    random_bit_positions,
    set_bits,
)
from repro.utils.tables import Table, render_heatmap, render_table
from repro.utils.serialization import (
    load_json,
    save_json,
    state_dict_to_lists,
    state_dict_from_lists,
)

__all__ = [
    "RngFactory",
    "as_rng",
    "spawn_rngs",
    "count_ones",
    "flip_bits",
    "random_bit_positions",
    "set_bits",
    "Table",
    "render_heatmap",
    "render_table",
    "load_json",
    "save_json",
    "state_dict_to_lists",
    "state_dict_from_lists",
]
