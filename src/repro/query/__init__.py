"""repro.query — hwdb's continuous-query engine.

Compiles CQL SELECTs into operator-DAG plans and maintains windowed
aggregates incrementally between subscription ticks.  Every SELECT hwdb
runs goes through here; the compile step is also where a query's errors
are raised.  See DESIGN.md §12.
"""

from .engine import QueryEngine
from .incremental import NotIncremental, build_incremental
from .plan import Plan, compile_select

__all__ = [
    "QueryEngine",
    "Plan",
    "compile_select",
    "NotIncremental",
    "build_incremental",
]
