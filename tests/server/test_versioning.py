"""The /v1 surface: every registry operation, and nothing outside it.

One request scenario covering every endpoint in the registry runs
against a fresh app under ``/v1``; every answer must be a JSON object,
and every error a structured payload carrying the request's trace id.
A path outside ``/v1`` is a structured 404 ``unknown-endpoint`` —
in process and over the real HTTP shell.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.server.app import AnalysisApp
from repro.server.http import build_server
from repro.server.schema import ENDPOINTS
from tests.server.conftest import scaled

#: one scenario touching every non-monitoring endpoint, in a
#: cache-and-generation-sensitive order; {sid} is substituted after the
#: open call (deterministically "s1" on a fresh app)
SCENARIO = [
    ("GET", "/v1/", None),
    ("GET", "/v1/sessions", None),
    ("POST", "/v1/sessions", {"workload": "fig1"}),
    ("GET", "/v1/sessions/{sid}", None),
    ("GET", "/v1/sessions/{sid}/metrics", None),
    ("POST", "/v1/sessions/{sid}/metrics",
     {"name": "cpi", "formula": "$0 / $1", "unit": "cyc/ins"}),
    ("POST", "/v1/sessions/{sid}/sort",
     {"metric": "cycles", "flavor": "exclusive", "descending": True}),
    ("GET", "/v1/sessions/{sid}/hotpath", None),
    ("POST", "/v1/sessions/{sid}/hotpath", {"view": "callers"}),
    ("GET", "/v1/sessions/{sid}/render?view=flat&depth=2", None),
    ("POST", "/v1/sessions/{sid}/render",
     {"view": "cct", "hot_path": True, "max_rows": 30}),
    ("GET", "/v1/sessions/{sid}/table?view=callers&depth=2", None),
    ("POST", "/v1/sessions/{sid}/table",
     {"view": "cct", "depth": 3, "max_rows": 40}),
    ("POST", "/v1/sessions/{sid}/flatten", None),
    ("POST", "/v1/sessions/{sid}/unflatten", None),
    # call-path queries: session mode on both verbs, plus a corpus-mode
    # attempt (no --corpus here, so a structured 404)
    ("POST", "/v1/query",
     {"session": "s1", "query": {"pattern": "** / *", "limit": 5}}),
    ("GET", '/v1/query?session=s1&query={{"pattern": "m"}}', None),
    ("POST", "/v1/query", {"tenant": "t", "diagnose": True}),
    # stateless ensemble surface: a self-diff of the open session
    # (all-zero rows, no findings)
    ("POST", "/v1/diff", {"sessions": ["s1", "s1"], "depth": 1}),
    ("GET", '/v1/diff?sessions=["s1","s1"]&max_rows=5', None),
    # trace views: there is no trace store on disk at this path, so
    # both verbs answer a structured 404
    ("POST", "/v1/trace", {"path": "no-such.rpstore", "view": "flame"}),
    ("GET", "/v1/trace?path=no-such.rpstore&view=series", None),
    # error paths
    ("GET", "/v1/ensemble", None),
    ("POST", "/v1/ensemble", {"databases": ["solo"]}),
    # corpus endpoints: the app runs without --corpus, so every call
    # answers a structured 404
    ("GET", "/v1/corpus", None),
    ("GET", "/v1/corpus/{tenant}/profiles", None),
    ("POST", "/v1/corpus/{tenant}/profiles", {"name": "x", "data": "AA=="}),
    ("GET", "/v1/corpus/{tenant}/profiles/{pid}", None),
    ("POST", "/v1/corpus/{tenant}/profiles/{pid}/open", None),
    ("POST", "/v1/corpus/{tenant}/compact", None),
    ("GET", "/v1/corpus/{tenant}/policy", None),
    ("POST", "/v1/corpus/{tenant}/policy", {"max_profiles": 1}),
    ("DELETE", "/v1/corpus/{tenant}/profiles/{pid}", None),
    ("GET", "/v1/sessions/nope", None),
    ("POST", "/v1/sessions/{sid}/render", {"view": "bogus"}),
    ("PUT", "/v1/sessions/{sid}/render", None),
    ("GET", "/v1/definitely/not/an/endpoint", None),
    ("DELETE", "/v1/sessions/{sid}", None),
]


def drive(app: AnalysisApp):
    """Run SCENARIO against *app*; returns [(status, payload, headers)]."""
    out = []
    sid = "s?"
    for method, path, body in SCENARIO:
        path = path.format(sid=sid, tenant="t", pid="p000001")
        raw = json.dumps(body).encode() if body is not None else b""
        status, payload, headers = app.handle_full(method, path, raw)
        out.append((status, payload, headers))
        if path.endswith("/sessions") and method == "POST":
            sid = payload["session"]["id"]
    return out


#: paths outside /v1: the bare forms of real endpoints and the root
BARE_PATHS = [
    ("GET", "/"),
    ("GET", "/sessions"),
    ("POST", "/sessions"),
    ("GET", "/stats"),
    ("GET", "/metrics"),
    ("GET", "/healthz"),
    ("POST", "/sessions/s1/render"),
    ("POST", "/query"),
    ("GET", "/corpus"),
    ("GET", "/v2/sessions"),
    ("GET", "//["),  # not even a parseable request target
]


class TestVersionedSurface:
    def test_scenario_answers_structured_json(self):
        for step, (status, payload, headers) in zip(
            SCENARIO, drive(AnalysisApp())
        ):
            assert isinstance(payload, dict), step[:2]
            json.dumps(payload)
            if status >= 400:
                error = payload["error"]
                assert error["status"] == status, step[:2]
                assert error["code"], step[:2]
                assert error["trace_id"] == headers["X-Trace-Id"], step[:2]

    def test_help_lists_endpoints_only(self):
        status, payload = AnalysisApp().handle("GET", "/v1/")
        assert status == 200
        assert set(payload) == {"service", "version", "doc", "endpoints"}

    def test_registry_coverage(self):
        """SCENARIO exercises every (method, path) in the registry except
        the three monitoring endpoints."""
        covered = set()
        for method, path, _ in SCENARIO:
            covered.add((method, path.split("?")[0].replace("s1", "<sid>")))
        for endpoint in ENDPOINTS:
            if endpoint.path in ("/healthz", "/stats", "/metrics"):
                continue
            for op in endpoint.ops:
                pattern = "/v1" + (
                    endpoint.path.replace("<sid>", "{sid}")
                    .replace("<tenant>", "{tenant}")
                    .replace("<pid>", "{pid}")
                )
                assert (op.method, pattern) in covered, (
                    f"{op.method} {endpoint.path} not covered by SCENARIO"
                )

    @pytest.mark.parametrize("method,path", BARE_PATHS)
    def test_bare_path_is_structured_404(self, method, path):
        app = AnalysisApp()
        app.handle("POST", "/v1/sessions", b'{"workload": "fig1"}')
        status, payload, headers = app.handle_full(method, path)
        assert status == 404
        assert payload["error"]["code"] == "unknown-endpoint"
        assert payload["error"]["trace_id"] == headers["X-Trace-Id"]
        assert "Deprecation" not in headers and "Link" not in headers


class TestDeprecationSignals:
    """No response carries a deprecation signal any more."""

    def test_versioned_path_clean(self):
        app = AnalysisApp()
        status, _payload, headers = app.handle_full("GET", "/v1/sessions")
        assert status == 200
        assert "Deprecation" not in headers and "Link" not in headers
        assert headers["X-Trace-Id"]

    def test_trace_id_header_matches_error_payload(self):
        app = AnalysisApp()
        status, payload, headers = app.handle_full("GET", "/v1/sessions/nope")
        assert status == 404
        assert payload["error"]["trace_id"] == headers["X-Trace-Id"]


class TestOverHttp:
    """Status, headers and raw body through the real HTTP shell."""

    @pytest.fixture()
    def server(self):
        srv = build_server(workload="fig1")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=scaled(10))

    def _get(self, server, path):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=scaled(10)) as sock:
            sock.settimeout(scaled(10))
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n\r\n".encode()
            )
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return status, headers, body

    def test_bare_path_404_over_http(self, server):
        status, headers, body = self._get(server, "/sessions")
        assert status == 404
        error = json.loads(body)["error"]
        assert error["code"] == "unknown-endpoint"
        assert error["trace_id"] == headers["x-trace-id"]
        assert "deprecation" not in headers

    def test_metrics_prometheus_over_http(self, server):
        self._get(server, "/v1/sessions")  # record at least one request
        status, headers, body = self._get(server, "/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert body.startswith(b"# HELP repro_server_requests_total")
        assert b"repro_server_request_duration_seconds_bucket" in body
