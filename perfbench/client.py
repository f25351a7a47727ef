"""The benchmark's HTTP client: one keep-alive connection, no retries.

A non-200 status or a dropped connection is reported to the caller as
is and counts as a failed operation.  The benchmark keeps its own
client, on the standard library's ``http.client``, rather than the
program's ``ServeClient``, so that a change under ``src/`` cannot change
how load is generated or what is measured.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Optional, Tuple


class Connection:
    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self._conn.close()

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        """Send one request and read the whole reply: (status, body)."""
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> Tuple[int, object]:
        status, body = self.request("GET", path)
        return status, json.loads(body)


def wait_healthy(
    host: str, port: int, deadline: float, alive
) -> Optional[float]:
    """Poll ``/healthz`` until the first 200; returns its arrival time.

    Polls every millisecond so set-up ends within about a millisecond of
    the server becoming ready.  ``alive()`` is checked between attempts
    so a server that died is not waited on until the deadline; ``None``
    means it never answered.
    """
    while time.perf_counter() < deadline:
        if not alive():
            return None
        try:
            conn = Connection(host, port, timeout=5.0)
        except OSError:
            time.sleep(0.001)
            continue
        try:
            status, _ = conn.request("GET", "/healthz")
        except (OSError, http.client.HTTPException):
            status = 0
        finally:
            conn.close()
        if status == 200:
            return time.perf_counter()
        time.sleep(0.001)
    return None
