"""Process-memory measurement for the run stats payload.

:func:`memory_stats` snapshots the process's peak memory at run end; the
platform publishes it in the ``RUN_END`` stats payload under ``"memory"``
and the :class:`~repro.profiling.Profiler` folds it into its report.  Peak
RSS is the process-lifetime high-water mark (``getrusage`` cannot be reset),
so comparing two configurations needs one process per configuration — which
is how the memory-bounding acceptance check runs sketch vs exact mode.
The cyclic collector's work, by contrast, is run-scoped: given the
:func:`gc.get_stats` snapshot taken at run start, the payload carries the
collections and collected objects since then, so a heap that grows
reference cycles shows up as a counter and not only as RSS.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Any, Dict, List, Optional

__all__ = ["memory_stats"]

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None


def memory_stats(gc_since: Optional[List[Dict[str, int]]] = None
                 ) -> Dict[str, Any]:
    """Peak process memory, in bytes, and the cyclic collector's work.

    * ``peak_rss_bytes`` — lifetime peak resident set size (POSIX only;
      ``ru_maxrss`` is kilobytes on Linux, bytes on macOS).
    * ``peak_traced_bytes`` — peak Python-level allocation, present only
      when the caller already started :mod:`tracemalloc`.
    * ``gc_collections`` (one count per generation) and ``gc_collected``
      (objects freed by the cyclic collector) — present only when
      ``gc_since`` passes a :func:`gc.get_stats` snapshot; both count
      from that snapshot.
    """
    stats: Dict[str, Any] = {}
    if resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":
            peak *= 1024
        stats["peak_rss_bytes"] = int(peak)
    if tracemalloc.is_tracing():
        stats["peak_traced_bytes"] = tracemalloc.get_traced_memory()[1]
    if gc_since is not None:
        pairs = list(zip(gc.get_stats(), gc_since))
        stats["gc_collections"] = [now["collections"] - then["collections"]
                                   for now, then in pairs]
        stats["gc_collected"] = sum(now["collected"] - then["collected"]
                                    for now, then in pairs)
    return stats
