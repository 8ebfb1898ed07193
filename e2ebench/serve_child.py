"""The serve-mixed server: ``repro-serve`` with one worker, own process.

Usage (from ``wl_serve.py``)::

    python e2ebench/serve_child.py [--trace] DB [DB ...] --workload s3d

Builds the single-process server over the given databases plus the
synthetic workload, prints ``{"port": N, "sessions": [...]}`` on one
line, and serves until its standard input reaches end of file.  Each
``collect`` line on standard input runs a full collection and the
calibration loop (the client sends one between units, when no request
is in flight) and is answered with ``collected <probe seconds> <cpu
seconds>``; each ``cpu`` line is answered with ``cpu <cpu seconds>``.
The CPU seconds are this process's, all threads, less the time spent in
calibration probes.  At end of file it shuts down and prints one more
JSON line: its peak RSS and, when traced, the per-layer split of
everything it served.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_sources()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("databases", nargs="+")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from layers import LayerTracer, query_observers

        tracer = LayerTracer()
        query_observers(tracer)
        tracer.install()
    from repro.server.http import build_server

    server = build_server(port=0, databases=args.databases,
                          workload=args.workload)
    harness.freeze_heap()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    print(json.dumps({"host": host, "port": port,
                      "sessions": server.app.registry.list_info()}),
          flush=True)
    probe_cpu = 0.0
    try:
        for line in sys.stdin:  # serve until the client closes our stdin
            command = line.strip()
            if command == "collect":
                harness.between_units()
                c0 = time.process_time()
                probe = harness.calibrate()
                probe_cpu += time.process_time() - c0
                print(f"collected {probe!r} "
                      f"{time.process_time() - probe_cpu!r}", flush=True)
            elif command == "cpu":
                print(f"cpu {time.process_time() - probe_cpu!r}", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        server.app.close()
        thread.join(timeout=30)
    out = {"peak_rss_mib": harness.peak_rss_mib()}
    if tracer is not None:
        out["layers"] = tracer.report()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
