"""The layer -> end-to-end -> workload map.

``BENCHMARK.json`` at the repository root defines the workloads and
metrics; its keys are fixed, so the map lives here.  It is the prediction
each later change cites: which per-layer metric should move which
end-to-end metric on which workload, and where it should stay flat.
``serve-mix`` is not in ``BENCHMARK.json`` while two server defects fail
some of its requests (see :mod:`serve`); until then its sweep rows are
measured only by running it by hand.
"""

from __future__ import annotations

#: per-layer metric prefix -> (end-to-end metrics it should move,
#: workloads where it should move them, workloads where it stays flat)
LAYER_MAP = {
    "skeleton.parse / skeleton.fingerprint": (
        ("p50_ms", "ops_per_s"), ("serve-analyze", "analyze-hotpath"),
        ("sweep-inputs", "cells-mixed")),
    "bet.build": (
        ("p50_ms", "points_per_s"),
        ("analyze-hotpath", "serve-analyze (p90_ms, cache misses)"),
        ("sweep-inputs", "cells-mixed")),
    "bet.cache.hit_ratio": (("p50_ms",), ("serve-analyze",),
                            ("analyze-hotpath",)),
    "bet.bind / bet.replay_ratio": (
        ("p50_ms",), ("sweep-inputs (under 64 points)",
                      "serve-mix (small sweeps)"), ("analyze-hotpath",)),
    "bet.rebind_batch": (
        ("points_per_s",), ("sweep-inputs (64+ points)", "cells-mixed"),
        ("analyze-hotpath", "serve-analyze")),
    "hardware.model": (("p50_ms",), ("serve-analyze", "cells-mixed"), ()),
    "analysis.characterize / project / select / hotpath": (
        ("p50_ms",), ("analyze-hotpath", "serve-analyze"),
        ("sweep-inputs (vector sweeps)",)),
    "analysis.project_batch": (
        ("points_per_s",), ("sweep-inputs", "cells-mixed"),
        ("analyze-hotpath",)),
    "export": (("p50_ms",), ("serve-mix", "cells-mixed"), ()),
    "parallel.*": (
        ("points_per_s", "p90_ms"),
        ("cells-mixed", "sweep-inputs (p50_ms)"), ("analyze-hotpath",)),
    "service.*": (
        ("p50_ms", "p90_ms", "ops_per_s"),
        ("serve-analyze", "serve-mix (coalescing, sweeps)"),
        ("analyze-hotpath", "sweep-inputs", "cells-mixed")),
}
