"""Per-layer cost ledger from a cProfile run of the timed phase.

Layers are the lint layer table (``repro.analysis.layers.layer_of``),
with ``query/store`` written ``query_store`` and the orchestration layer
folded into ``app``.  Two more buckets exist:

* ``other`` — the benchmark's own frames (the load generators), and
  anything no ``repro`` frame called;
* frames outside ``repro`` (builtins, stdlib) are charged to the layer
  of whoever called them, split by the per-caller self time pstats
  records, following callers through further non-``repro`` frames.
"""

from __future__ import annotations

import os
import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

import repro
from repro.analysis.layers import LAYER_NAMES, layer_of

LAYERS: Tuple[str, ...] = (
    "net",
    "openflow",
    "hwdb",
    "query_store",
    "nox",
    "services",
    "policy",
    "measurement",
    "obs",
    "sim",
    "kernel",
    "app",
    "other",
)

_RENAME = {"query/store": "query_store", "fleet": "app"}

Func = Tuple[str, int, str]

REPRO_DIR = Path(repro.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent


def _own_layer(filename: str) -> Optional[str]:
    """The bucket a frame defined in ``filename`` is charged to, or None
    for a frame outside ``repro`` and this benchmark, which its callers
    pay for."""
    path = Path(filename).resolve()
    if BENCH_DIR in path.parents:
        return "other"
    try:
        parts = list(path.relative_to(REPRO_DIR).with_suffix("").parts)
    except ValueError:
        return None
    if parts[-1] == "__init__":
        parts.pop()
    level = layer_of(".".join(["repro", *parts]))
    name = "other" if level is None else LAYER_NAMES[level]
    return _RENAME.get(name, name)


class Ledger:
    """Self time per layer, plus per-function lookups, from one profile."""

    def __init__(self, stats: pstats.Stats):
        self.stats: Dict[Func, tuple] = stats.stats  # type: ignore[attr-defined]
        self._weights: Dict[Func, Dict[str, float]] = {}

    def weights(self, func: Func) -> Dict[str, float]:
        """The layer mix a function's self time is charged to."""
        cached = self._weights.get(func)
        if cached is not None:
            return cached
        own = _own_layer(func[0])
        if own is not None:
            self._weights[func] = {own: 1.0}
            return self._weights[func]
        # Guard recursion through mutually-calling non-repro frames.
        self._weights[func] = {"other": 1.0}
        callers = self.stats[func][4] if func in self.stats else {}
        total = sum(entry[2] for entry in callers.values())
        use_calls = total <= 0.0
        if use_calls:
            total = sum(entry[1] for entry in callers.values())
        mix: Dict[str, float] = {}
        for caller, entry in callers.items():
            share = (entry[1] if use_calls else entry[2]) / total if total else 0.0
            for layer, weight in self.weights(caller).items():
                mix[layer] = mix.get(layer, 0.0) + share * weight
        if mix:
            self._weights[func] = mix
        return self._weights[func]

    def self_seconds(self) -> Dict[str, float]:
        buckets = {layer: 0.0 for layer in LAYERS}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for layer, weight in self.weights(func).items():
                buckets[layer] += tt * weight
        return buckets

    def calls(self, path_suffix: str, name: str) -> Tuple[int, float]:
        """(call count, cumulative seconds) of ``name`` defined in a repro
        file ending in ``path_suffix``, summed over same-named functions."""
        suffix = os.sep + os.path.join("repro", *path_suffix.split("/"))
        ncalls, cumulative = 0, 0.0
        for (filename, _line, funcname), (_cc, nc, _tt, ct, _callers) in self.stats.items():
            if funcname == name and filename.endswith(suffix):
                ncalls += nc
                cumulative += ct
        return ncalls, cumulative
