"""Served sockets run with TCP_NODELAY.

The handler writes a response's headers and body separately; with
Nagle's algorithm on, the body of a small keep-alive reply waits for
the client's delayed ACK of the headers.  Both serving modes — the
threaded in-process server and the pre-forked pool's workers — use
:class:`AnalysisRequestHandler`, so both must set the option.
"""

from __future__ import annotations

import http.client
import os
import socket
import threading

from repro.server.http import AnalysisRequestHandler, build_server
from repro.server.pool import ServerPool
from tests.server.conftest import scaled


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _get(host: str, port: int, path: str) -> int:
    conn = http.client.HTTPConnection(host, port, timeout=scaled(30))
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def test_in_process_server_sets_nodelay(monkeypatch):
    seen = []
    setup = AnalysisRequestHandler.setup

    def spy(self):
        setup(self)
        seen.append(_nodelay(self.connection))

    monkeypatch.setattr(AnalysisRequestHandler, "setup", spy)
    srv = build_server(workload="fig1")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = srv.server_address[:2]
        assert _get(host, port, "/v1/sessions") == 200
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=scaled(10))
    assert seen == [True]


def test_pool_worker_sets_nodelay():
    """The parent hands each connection's descriptor to a worker; a
    duplicate kept here names the same socket, so it shows the option
    the worker's handler set."""
    pool = ServerPool(workers=1, config={"workload": "fig1",
                                         "max_body": 1 << 20}).start()
    kept = []
    hand_off = pool._hand_off

    def keep(conn, slot):
        kept.append(socket.socket(fileno=os.dup(conn.fileno())))
        assert not _nodelay(kept[-1])  # accepted sockets start with Nagle on
        hand_off(conn, slot)

    pool._hand_off = keep
    try:
        host, port = pool.address
        assert _get(host, port, "/v1/sessions") == 200
        assert len(kept) == 1
        assert _nodelay(kept[0])
    finally:
        for sock in kept:
            sock.close()
        pool.close()
