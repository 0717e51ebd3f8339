"""repro.memtrace — memory-trace capture & replay.

Record the memory transaction stream of one live render, then re-price
it through freshly configured L1/L2/DRAM models to get full ``SimStats``
for any memory-hierarchy-only configuration without re-running
traversal.  It backs the ``repro trace`` verbs and is the oracle the
tests hold live GPU-override sweep points to; sweeps themselves run
live.  See ``docs/MEMTRACE.md`` for the format, the replay-safety
classification and the store layout.
"""

from repro.memtrace.format import (
    MemTrace,
    SMTrace,
    load_trace,
    save_trace,
    trace_file_info,
)
from repro.memtrace.recorder import (
    RECORDABLE_POLICIES,
    TraceRecorder,
    trace_budget_bytes,
)
from repro.memtrace.replay import replay_trace
from repro.memtrace.safety import (
    CROSS_CONFIG_POLICIES,
    REPLAY_SAFE_GPU_FIELDS,
    classify_axis,
    ensure_replayable,
    overrides_replay_safe,
)
from repro.memtrace.store import (
    ensure_trace,
    record_trace,
    store_trace,
    trace_dir,
    trace_key,
    trace_path,
    try_load_trace,
)

__all__ = [
    "MemTrace",
    "SMTrace",
    "load_trace",
    "save_trace",
    "trace_file_info",
    "RECORDABLE_POLICIES",
    "TraceRecorder",
    "trace_budget_bytes",
    "replay_trace",
    "CROSS_CONFIG_POLICIES",
    "REPLAY_SAFE_GPU_FIELDS",
    "classify_axis",
    "ensure_replayable",
    "overrides_replay_safe",
    "ensure_trace",
    "record_trace",
    "store_trace",
    "trace_dir",
    "trace_key",
    "trace_path",
    "try_load_trace",
]
