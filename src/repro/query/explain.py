"""Render compiled plans for EXPLAIN / EXPLAIN ANALYZE.

Output is a list of plain-text lines; the database wraps them into a
one-column ``ResultSet(["plan"], ...)`` so EXPLAIN travels the normal
query path — local calls, the UDP RPC gateway and the CLI all get the
same rendering for free.
"""

from __future__ import annotations

from typing import List, Optional

from .incremental import IncrementalState
from .plan import Plan


def render_plan(
    text: str,
    mode: str,
    reason: Optional[str],
    plan: Plan,
    state: Optional[IncrementalState],
    analyze: bool,
) -> List[str]:
    """Lines describing how the engine runs ``text``.

    ``mode`` is the engine's routing decision (``incremental`` or
    ``plan``); ``reason`` says why the plan tier was chosen.  With
    ``analyze``, per-operator row counts and cumulative timings observed
    so far are appended (the engine runs the query once before
    rendering, so they are never empty).
    """
    lines = [f"Query: {text}", f"Mode: {mode}"]
    if reason:
        lines.append(f"Reason: {reason}")
    if plan.notes:
        lines.append("Rewrites:")
        for note in plan.notes:
            lines.append(f"  - {note}")
    else:
        lines.append("Rewrites: none")
    lines.append("Plan:")
    for depth, node in plan.nodes:
        line = "  " * (depth + 1) + node.describe()
        if analyze:
            snapshot = plan.stats.snapshot(node.node_id)
            if snapshot is not None:
                rows, batches, seconds = snapshot
                line += (
                    f"  [rows={rows} batches={batches}"
                    f" time={seconds * 1000.0:.3f}ms]"
                )
        lines.append(line)
    if state is not None:
        lines.append(
            "Incremental state:"
            f" groups={state.group_count()}"
            f" entries={state.entry_count()}"
            f" watermark={state.watermark}"
        )
        if analyze:
            lines.append(
                "Incremental activity:"
                f" ticks={state.ticks}"
                f" ingested={state.rows_ingested}"
                f" evicted={state.rows_evicted}"
                f" resets={state.resets}"
            )
    return lines
