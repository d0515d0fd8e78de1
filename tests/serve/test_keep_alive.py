"""Persistent connections (RFC 9112 §9.3) over a raw socket and through
:class:`ServeClient`.

An HTTP/1.1 request keeps its connection open unless it says
``Connection: close``; HTTP/1.0 closes unless it says ``keep-alive``.
Requests pipelined on one connection are answered in order.  A
connection the client closes between requests, or leaves idle for
``_READ_TIMEOUT_S``, closes with nothing sent.  A client reuses one
connection per thread and resends once when the server closed it idle.
"""

import socket
import threading
import time

import pytest

import repro.serve.server as server_module
from repro.serve import ReproServer, ServeClient

from .test_request_limits import get, read_all, read_response
from .test_server import SPEC, start_server


@pytest.fixture
def counted(tmp_path, monkeypatch):
    """A server, its client, and the peer address of every connection
    it accepted."""
    accepted = []
    handle_connection = ReproServer._handle

    async def counting(self, reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await handle_connection(self, reader, writer)

    monkeypatch.setattr(ReproServer, "_handle", counting)
    server, handle, client = start_server(tmp_path, workers=1)
    yield server, client, accepted
    handle.stop()


def connect(client) -> socket.socket:
    return socket.create_connection((client.host, client.port), timeout=10)


class TestRawSocket:
    def test_pipelined_requests_answered_in_order(self, counted):
        _, client, accepted = counted
        with connect(client) as conn, conn.makefile("rb") as stream:
            conn.sendall(get([]) + get([], target="/v1/stats"))
            first, second = read_response(stream), read_response(stream)
            assert first[0] == second[0] == 200
            assert first[2] == b'{"status": "ok"}\n'
            assert b'"queue"' in second[2]
            assert first[1]["connection"] == second[1]["connection"] == "keep-alive"
            # Still open: a third request on it is answered, then closed.
            conn.sendall(get(["Connection: close"], target="/v1/nowhere"))
            status, headers, _ = read_response(stream)
            assert status == 404 and headers["connection"] == "close"
            assert stream.read() == b""
        assert len(accepted) == 1

    @pytest.mark.parametrize(
        "request_bytes",
        [
            get(["Connection: close"]),
            b"GET /v1/healthz HTTP/1.0\r\n\r\n",
            b"GET /v1/healthz HTTP/1.0\r\nConnection: Upgrade, close\r\n\r\n",
        ],
        ids=["1.1-close", "1.0", "1.0-close"],
    )
    def test_closes_after_one_response(self, counted, request_bytes):
        _, client, _ = counted
        with connect(client) as conn:
            # Two requests sent, no EOF: only the first is answered.
            conn.sendall(request_bytes + get([]))
            response = read_all(conn)
        assert response.count(b"HTTP/1.1 200 OK\r\n") == 1
        assert b"Connection: close\r\n" in response

    def test_http10_keep_alive_stays_open(self, counted):
        _, client, accepted = counted
        request = b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with connect(client) as conn, conn.makefile("rb") as stream:
            conn.sendall(request)
            assert read_response(stream)[1]["connection"] == "keep-alive"
            conn.sendall(request)
            assert read_response(stream)[0] == 200
        assert len(accepted) == 1

    def test_route_error_keeps_the_connection(self, counted):
        _, client, _ = counted
        with connect(client) as conn, conn.makefile("rb") as stream:
            conn.sendall(get([], target="/v1/jobs/nope") + get([]))
            assert read_response(stream)[0] == 404
            assert read_response(stream)[0] == 200

    def test_refused_framing_closes(self, counted):
        _, client, _ = counted
        with connect(client) as conn:
            conn.sendall(get(["no colon here"]) + get([]))
            response = read_all(conn)
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert response.count(b"HTTP/1.1 ") == 1

    def test_eof_between_requests_closes_silently(self, counted):
        _, client, _ = counted
        with connect(client) as conn, conn.makefile("rb") as stream:
            conn.sendall(get([]))
            assert read_response(stream)[0] == 200
            conn.shutdown(socket.SHUT_WR)
            assert stream.read() == b""

    @pytest.mark.parametrize("exchanges", [0, 1], ids=["fresh", "kept"])
    def test_idle_timeout_closes_silently(self, counted, monkeypatch, exchanges):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        _, client, _ = counted
        with connect(client) as conn, conn.makefile("rb") as stream:
            for _ in range(exchanges):
                conn.sendall(get([]))
                assert read_response(stream)[0] == 200
            t0 = time.monotonic()
            assert stream.read() == b""  # no unsolicited 408
            assert 0.15 < time.monotonic() - t0 < 5


class TestClientReuse:
    def test_submit_and_polls_share_one_connection(self, counted):
        _, client, accepted = counted
        job = client.run(SPEC, timeout=300)
        assert job["state"] == "done"
        assert client.report(job["job_id"]) == job["report"]
        assert client.healthz() == {"status": "ok"}
        assert len(accepted) == 1

    def test_threads_get_their_own_connections(self, counted):
        _, client, accepted = counted
        client.healthz()
        other = threading.Thread(target=client.healthz)
        other.start()
        other.join()
        client.healthz()
        assert len(accepted) == 2

    def test_submit_after_the_server_closed_idle(self, counted, monkeypatch):
        server, client, accepted = counted
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.5)
        assert client.healthz() == {"status": "ok"}
        time.sleep(1.5)  # the server closes the idle connection
        submitted = client.submit(SPEC)
        assert client.wait(submitted["job_id"], timeout=300)["state"] == "done"
        assert len(server.registry.jobs()) == 1
        assert len(accepted) == 2

    def test_no_resend_on_a_fresh_connection(self):
        # A listener that closes every connection unanswered.
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10)

            def close_one():
                conn, _ = listener.accept()
                accepted.append(conn.recv(1 << 16))
                conn.close()

            closer = threading.Thread(target=close_one)
            closer.start()
            client = ServeClient(port=listener.getsockname()[1], timeout=10)
            with pytest.raises(ConnectionError):
                client.healthz()
            closer.join()
            listener.settimeout(0.2)
            with pytest.raises(socket.timeout):
                listener.accept()  # no second attempt
        assert len(accepted) == 1 and accepted[0].startswith(b"GET /v1/healthz ")
