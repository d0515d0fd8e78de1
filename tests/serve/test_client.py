""":class:`ServeClient`'s transport against scripted peers.

Each peer is a listener whose connections are handed, in order, to
scripted handlers, so a test states exactly what the server sends and
sees exactly what the client sent and how many connections it opened.
The client closes its connection after a ``Connection: close`` or
HTTP/1.0 answer and after broken framing (a ``ConnectionError``), reads
a body of exactly ``Content-Length`` bytes, resends a request only when
a reused connection closed before any response byte, and times out.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ServeClient, ServeError

def response(body: bytes, status: str = "200 OK", headers=(), version="HTTP/1.1") -> bytes:
    lines = [f"{version} {status}", f"Content-Length: {len(body)}", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1") + body


OK = response(b'{"status": "ok"}\n')


def read_request(stream) -> bytes:
    """One request (head and ``Content-Length`` body), or b"" at EOF."""
    head = b""
    while (line := stream.readline()) not in (b"\r\n", b""):
        head += line
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return head + b"\r\n" + stream.read(length) if head else b""


class Peer:
    """A listener that hands its n-th connection to ``scripts[n]``, a
    function of the socket and of ``read()``, which reads the next
    request (b"" at EOF) and records it."""

    def __init__(self, *scripts):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self.requests: list[bytes] = []
        self.errors: list[BaseException] = []
        self.thread = threading.Thread(target=self._serve, args=(scripts,), daemon=True)
        self.thread.start()

    def _serve(self, scripts) -> None:
        try:
            for script in scripts:
                conn, _ = self.listener.accept()
                self.accepted += 1
                conn.settimeout(10)
                with conn, conn.makefile("rb") as stream:
                    script(conn, lambda: self._read(stream))
        except BaseException as error:  # surfaced by join()
            self.errors.append(error)

    def _read(self, stream) -> bytes:
        request = read_request(stream)
        if request:
            self.requests.append(request)
        return request

    def join(self) -> None:
        """Wait until every script has run; fail on any that failed."""
        self.thread.join(timeout=30)
        assert not self.thread.is_alive() and self.errors == []

    def no_more_connections(self, wait: float = 0.3) -> bool:
        self.listener.settimeout(wait)
        try:
            self.listener.accept()[0].close()
        except socket.timeout:
            return True
        return False


@pytest.fixture
def peer():
    """``peer(*scripts)`` starts a :class:`Peer` and a client of it."""
    peers = []

    def make(*scripts) -> tuple[Peer, ServeClient]:
        peers.append(Peer(*scripts))
        return peers[-1], ServeClient(port=peers[-1].port, timeout=10)

    yield make
    for p in peers:
        p.listener.close()


def answer(*responses):
    """A script answering one request with each of ``responses``, then
    checking that the client closed the connection without another."""

    def script(conn, read):
        for raw in responses:
            assert read()
            conn.sendall(raw)
        assert read() == b""

    return script


class TestConnectionReuse:
    @pytest.mark.parametrize(
        "last",
        [
            response(b'{"status": "ok"}\n', headers=["Connection: close"]),
            response(b'{"status": "ok"}\n', version="HTTP/1.0"),
            response(b'{"status": "ok"}\n', headers=["Connection: Upgrade, close"]),
        ],
        ids=["1.1-close", "1.0", "close-in-a-list"],
    )
    def test_closing_answer_opens_a_new_connection(self, peer, last):
        p, client = peer(answer(OK, last), answer(OK))
        assert client.healthz() == {"status": "ok"}
        assert client.healthz() == {"status": "ok"}
        assert client.healthz() == {"status": "ok"}
        client.close()
        p.join()
        assert p.accepted == 2 and len(p.requests) == 3

    def test_http10_keep_alive_answer_keeps_the_connection(self, peer):
        kept = response(
            b'{"status": "ok"}\n', version="HTTP/1.0", headers=["Connection: keep-alive"]
        )
        p, client = peer(answer(kept, OK))
        assert client.healthz() == client.healthz() == {"status": "ok"}
        client.close()
        p.join()
        assert p.accepted == 1

    def test_request_is_one_well_framed_message(self, peer):
        p, client = peer(answer(response(b'{"job_id": "j"}\n', "202 Accepted")))
        assert client.submit({"a": 1}) == {"job_id": "j"}
        client.close()
        p.join()
        [request] = p.requests
        head, _, body = request.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"POST /v1/jobs HTTP/1.1"
        assert f"Host: 127.0.0.1:{p.port}".encode() in lines
        assert b"Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}".encode() in lines
        assert json.loads(body) == {"a": 1}


class TestBrokenFraming:
    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
            b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 0\r\n\r\n",
        ],
        ids=["status-line", "protocol", "no-content-length", "bad-length", "header-line"],
    )
    def test_malformed_response_raises_and_drops(self, peer, raw):
        p, client = peer(answer(raw))
        with pytest.raises(ConnectionError):
            client.healthz()
        p.join()  # the script saw the client close the connection

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n" + b'{"status"',
            b"HTTP/1.1 200 OK\r\nContent-Len",
            b"HTTP/1.1 200 O",
        ],
        ids=["body", "headers", "status-line"],
    )
    def test_response_cut_short_raises_and_drops(self, peer, raw):
        def cut_short(conn, read):
            assert read()
            conn.sendall(raw)

        p, client = peer(cut_short, answer(OK))
        with pytest.raises(ConnectionError):
            client.healthz()
        assert client.healthz() == {"status": "ok"}  # on a new connection
        client.close()
        p.join()
        assert p.accepted == 2

    def test_one_mebibyte_body_is_read_whole(self, peer):
        body = (json.dumps("x" * (1 << 20)) + "\n").encode()
        p, client = peer(answer(response(body), OK))
        assert client._exchange("GET", "/big", None, {}) == (200, body)
        assert client.healthz() == {"status": "ok"}  # the framing held
        client.close()
        p.join()
        assert p.accepted == 1

    def test_control_character_in_target_is_refused(self, peer):
        p, client = peer()
        with pytest.raises(ValueError):
            client.job("job-1 HTTP/1.1\r\nX-Injected: 1")
        assert p.no_more_connections()


class TestResend:
    def test_reused_connection_closed_unanswered_is_resent_once(self, peer):
        def close_second(conn, read):
            assert read()
            conn.sendall(OK)
            assert read()  # read, never answered

        p, client = peer(close_second, answer(OK))
        assert client.healthz() == {"status": "ok"}
        assert client.healthz() == {"status": "ok"}
        client.close()
        p.join()
        assert p.accepted == 2

    def test_reused_connection_closed_idle_is_resent_once(self, peer):
        def close_idle(conn, read):
            assert read()
            conn.sendall(OK)

        p, client = peer(close_idle, answer(OK))
        assert client.healthz() == {"status": "ok"}
        time.sleep(0.1)  # the peer has closed
        assert client.healthz() == {"status": "ok"}
        client.close()
        p.join()
        assert p.accepted == 2

    def test_no_resend_after_part_of_the_status_line(self, peer):
        posts = []

        def half_answer(conn, read):
            assert read()
            conn.sendall(OK)
            posts.append(read())
            conn.sendall(b"HTTP/1.1 2")

        p, client = peer(half_answer)
        assert client.healthz() == {"status": "ok"}
        with pytest.raises(ConnectionError):
            client.submit({"a": 1})
        p.join()
        assert p.no_more_connections()  # the POST was sent once
        assert len(posts) == 1 and posts[0].startswith(b"POST /v1/jobs ")


class TestTimeout:
    def test_silent_peer_times_out(self, peer):
        def silent(conn, read):
            assert read()
            assert read() == b""  # until the client gives up

        p, _ = peer(silent)
        client = ServeClient(port=p.port, timeout=0.3)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.healthz()
        assert time.monotonic() - started < 3
        p.join()


class TestErrorBodies:
    def test_non_json_error_body_keeps_its_status(self, peer):
        page = b"<html><body>502 Bad Gateway</body></html>"
        p, client = peer(
            answer(response(page, "502 Bad Gateway", ["Content-Type: text/html"]))
        )
        with pytest.raises(ServeError) as caught:
            client.healthz()
        assert caught.value.status == 502
        assert caught.value.payload == page.decode()
        client.close()
        p.join()

    def test_json_error_body_is_parsed(self, peer):
        p, client = peer(
            answer(response(b'{"error": "unknown job"}\n', "404 Not Found"))
        )
        with pytest.raises(ServeError, match="unknown job") as caught:
            client.job("job-9")
        assert caught.value.payload == {"error": "unknown job"}
        client.close()
        p.join()


class TestRunFallback:
    def test_run_waits_when_the_preference_was_ignored(self, peer):
        short = {"job_id": "job-1", "digest": "d", "state": "done", "deduplicated": False}
        job = {"job_id": "job-1", "state": "done", "created": 1.0, "report": {"r": 1}}
        p, client = peer(
            answer(
                response(json.dumps(short).encode()), response(json.dumps(job).encode())
            ),
        )
        assert client.run({"a": 1}, timeout=30) == job
        client.close()
        p.join()
        post, get = p.requests
        assert b"Prefer: return=representation, wait=" in post
        assert get.startswith(b"GET /v1/jobs/job-1 HTTP/1.1\r\n")
