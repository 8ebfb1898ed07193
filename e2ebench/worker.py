"""Child process that runs an in-process workload's op list.

Usage (from ``run.py``)::

    python e2ebench/worker.py SPEC.json

The spec names the workload, its set-up outputs and references, the op
list, whether to trace, and optionally the reference to corrupt.  The
child prints one JSON line: the recorder, the loop's wall and scaled
time (see ``harness.calibrate``), its own
peak RSS and, when traced, the per-layer split.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_sources()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    module = importlib.import_module(harness.WORKLOADS[spec["workload"]])
    tracer = None
    if spec["traced"]:
        from layers import LayerTracer, query_observers

        tracer = LayerTracer()
        query_observers(tracer)
        tracer.install()
    rec = harness.Recorder()
    oracle = harness.Oracle(spec["refs"], spec.get("corrupt"))
    state = module.State(spec)
    harness.freeze_heap()
    loop = harness.run_units(module, state, spec["units"], rec, oracle)
    out = {
        "recorder": rec.to_json(),
        **loop,
        "peak_rss_mib": harness.peak_rss_mib(),
        "extras": module.finish(state),
    }
    if tracer is not None:
        out["layers"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
