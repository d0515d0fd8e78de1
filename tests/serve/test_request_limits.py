"""Hostile request framing over a real socket: bounded headers, typed errors.

The server caps the request line and each header line at ``_MAX_LINE``
bytes, a request at ``_MAX_HEADERS`` header fields and its reading at
``_READ_TIMEOUT_S`` seconds.  Over-limit requests get 431, malformed
framing gets 400, a stalled request 408, never a 500, and the server
keeps serving.  A body framed other than by one ``Content-Length``
(``Transfer-Encoding``, conflicting lengths) is refused, so it cannot
be read as a next request on a kept connection.  Stopping the server
with a connection still open, mid-read or idle, logs nothing.
"""

import logging
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve.server as server_module

from repro.serve import ServeClient

from .test_server import start_server


@pytest.fixture
def client(tmp_path):
    _, handle, client = start_server(tmp_path, workers=1)
    yield client
    handle.stop()


def exchange(client, request: bytes) -> tuple[int, bytes]:
    """Send ``request`` whole, then read the response to EOF."""
    with socket.create_connection((client.host, client.port), timeout=10) as conn:
        conn.sendall(request)
        conn.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := conn.recv(1 << 16):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]


def get(headers: list[str], target: str = "/v1/healthz") -> bytes:
    lines = [f"GET {target} HTTP/1.1", "Host: localhost", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


class TestHeaderLimits:
    def test_ten_thousand_headers_431(self, client):
        status, body = exchange(client, get([f"X-H{i}: v" for i in range(10_000)]))
        assert status == 431
        assert b"header fields" in body
        assert client.healthz() == {"status": "ok"}

    def test_header_count_at_the_cap_is_served(self, client):
        # Host counts as one of the fields.
        extra = [f"X-H{i}: v" for i in range(server_module._MAX_HEADERS - 1)]
        assert exchange(client, get(extra))[0] == 200
        assert exchange(client, get([*extra, "X-One-More: v"]))[0] == 431

    @pytest.mark.parametrize("size", [server_module._MAX_LINE, 200_000])
    def test_long_header_line_431(self, client, size):
        status, _ = exchange(client, get(["X-Long: " + "a" * size]))
        assert status == 431
        assert client.healthz() == {"status": "ok"}

    @pytest.mark.parametrize("size", [server_module._MAX_LINE, 200_000])
    def test_long_request_line_431(self, client, size):
        status, _ = exchange(client, get([], target="/v1/healthz?" + "a" * size))
        assert status == 431


class TestMalformedFraming:
    @pytest.mark.parametrize(
        "line",
        ["no colon here", ": empty name", "Bad Name: v", " folded: v"],
        ids=["no-colon", "empty-name", "space-in-name", "leading-space"],
    )
    def test_malformed_header_line_400(self, client, line):
        assert exchange(client, get([line]))[0] == 400

    def test_headers_cut_short_400(self, client):
        request = b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n"
        assert exchange(client, request)[0] == 400
        assert client.healthz() == {"status": "ok"}

    def test_transfer_encoding_400_and_close(self, client):
        # Were the chunked body ignored, its bytes would be answered as
        # a second, smuggled request on the kept connection.
        smuggled = b"GET /v1/stats HTTP/1.1\r\nHost: localhost\r\n\r\n"
        request = (
            b"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(smuggled) + smuggled + b"\r\n0\r\n\r\n"
        )
        with socket.create_connection((client.host, client.port), timeout=10) as conn:
            conn.sendall(request)
            response = read_all(conn)  # the server closes; no EOF sent
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close\r\n" in response
        assert b"Transfer-Encoding" in response
        assert response.count(b"HTTP/1.1 ") == 1
        assert client.healthz() == {"status": "ok"}

    def test_conflicting_content_lengths_400(self, client):
        status, body = exchange(client, get(["Content-Length: 0", "Content-Length: 5"]))
        assert status == 400
        assert b"conflicting Content-Length" in body

    def test_repeated_equal_content_length_is_served(self, client):
        assert exchange(client, get(["Content-Length: 0", "Content-Length: 0"]))[0] == 200


def read_all(conn: socket.socket) -> bytes:
    response = b""
    while chunk := conn.recv(1 << 16):
        response += chunk
    return response


class TestReadTimeout:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"trace\"",
        ],
        ids=["inside-headers", "inside-body"],
    )
    def test_stalled_request_408(self, client, monkeypatch, request_bytes):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        with socket.create_connection((client.host, client.port), timeout=10) as conn:
            # Sent, then nothing: no blank line or full body, no EOF.
            conn.sendall(request_bytes)
            response = read_all(conn)
        assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"within 0.2 s" in response
        assert client.healthz() == {"status": "ok"}


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    """One response from ``stream`` (a socket's binary file), leaving
    the connection open for the next."""
    status_line = stream.readline()
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def keep_idle(conn: socket.socket) -> None:
    """One full exchange on ``conn``, which then stays open and idle."""
    conn.sendall(get([]))
    with conn.makefile("rb") as stream:
        status, headers, _ = read_response(stream)
    assert status == 200 and headers["connection"] == "keep-alive"


class TestQuietShutdown:
    def test_stop_with_a_connection_mid_read(self, tmp_path, caplog):
        _, handle, client = start_server(tmp_path, workers=1)
        with socket.create_connection((client.host, client.port), timeout=10) as conn:
            conn.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n")
            assert client.healthz() == {"status": "ok"}  # the held one is mid-read
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                handle.stop()
            assert read_all(conn) == b""  # closed without a response
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_sigterm_with_a_connection_mid_read(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stdout.readline()
            port = int(announce.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n")
                probe = ServeClient(port=port)
                assert probe.healthz() == {"status": "ok"}
                proc.send_signal(signal.SIGTERM)
                _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0
        assert stderr == ""

    def test_stop_with_an_idle_kept_connection(self, tmp_path, caplog):
        _, handle, client = start_server(tmp_path, workers=1)
        with socket.create_connection((client.host, client.port), timeout=10) as conn:
            keep_idle(conn)
            assert client.healthz() == {"status": "ok"}
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                handle.stop()
            assert read_all(conn) == b""  # closed with nothing sent
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_sigterm_with_an_idle_kept_connection(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stdout.readline()
            port = int(announce.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                keep_idle(conn)
                proc.send_signal(signal.SIGTERM)
                _, stderr = proc.communicate(timeout=60)
                assert read_all(conn) == b""
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0
        assert stderr == ""
