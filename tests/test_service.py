from __future__ import annotations

import contextlib
import email.utils
import http.client
import itertools
import json
import socket
import socketserver
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from claudette import service
from claudette.cli import main
from claudette.modelio import load_model
from claudette.service import make_server
from claudette.treekernel import CompiledTrees

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "model.json"
    code = main(
        [
            "train",
            "--task",
            "detect",
            "--model",
            "linear-bow",
            "--corpus",
            str(FIXTURES / "planted"),
            "--seed",
            "7",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@contextlib.contextmanager
def serving(model_path: Path):
    srv = make_server(load_model(model_path), port=0, max_bytes=4096)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture(scope="module")
def server(served_model):
    with serving(served_model) as srv:
        yield srv


def _url(server, path):
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


def _answer(req) -> tuple[int, bytes]:
    """Status and body of the answer to ``req``, with its connection closed."""
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, err.read()


def _post(server, body: bytes, content_type: str | None = "text/plain; charset=utf-8"):
    headers = {}
    if content_type is not None:
        headers["Content-Type"] = content_type
    return _answer(urllib.request.Request(_url(server, "/analyze"), data=body, headers=headers))


class TestHealth:
    def test_health_reports_model_metadata(self, server):
        status, body = _answer(_url(server, "/health"))
        assert status == 200
        assert json.loads(body) == {"status": "ok", "model_kind": "linear-bow", "format_version": 1}

    def test_unknown_path_404(self, server):
        assert _answer(_url(server, "/nope"))[0] == 404


class TestAnalyze:
    def test_parity_with_cli_predict(self, server, served_model, capsysbinary):
        doc = FIXTURES / "planted" / "doc01.txt"
        status, service_bytes = _post(server, doc.read_bytes())
        assert status == 200
        assert main(["predict", "--model", str(served_model), "--input", str(doc)]) == 0
        cli_bytes = capsysbinary.readouterr().out
        assert service_bytes == cli_bytes

    def test_identical_bodies_identical_responses(self, server):
        body = b"The provider may change anything. Nothing else matters."
        assert _post(server, body) == _post(server, body)

    def test_empty_body_400(self, server):
        assert _post(server, b"")[0] == 400

    def test_whitespace_body_400(self, server):
        assert _post(server, b"   \n  ")[0] == 400

    def test_non_text_content_type_400(self, server):
        assert _post(server, b"{}", content_type="application/json")[0] == 400

    def test_missing_content_type_accepted(self, server):
        body = b"A plain sentence without a header."
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Length", str(len(body)))
            conn.endheaders()
            conn.send(body)
            resp = conn.getresponse()
            assert resp.status == 200
        finally:
            conn.close()

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, server):
        # 20 answers on one connection; a body held back by Nagle's algorithm
        # until the client's delayed ACK costs about 40 ms per answer
        body = b"The provider may change anything. Nothing else matters."
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/analyze", body=body, headers={"Content-Type": "text/plain"})
                resp = conn.getresponse()
                assert resp.status == 200 and resp.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4

    def _raw_status(self, server, length_fields: list[bytes], body: bytes) -> int:
        """The status code answered to a POST whose Content-Length fields are
        written byte for byte as given."""
        head = b"POST /analyze HTTP/1.1\r\nHost: localhost\r\nContent-Type: text/plain\r\n"
        head += b"".join(b"Content-Length: " + v + b"\r\n" for v in length_fields)
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=10) as sock:
            sock.sendall(head + b"\r\n" + body)
            answer = b""
            while b"\r\n" not in answer:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                answer += chunk
        return int(answer.split(b" ", 2)[1])

    def test_content_length_of_digits_only(self, server):
        body = b"The provider may change the terms."
        size = str(len(body)).encode()
        assert self._raw_status(server, [size], body) == 200
        assert self._raw_status(server, [b" " + size + b"\t"], body) == 200
        bad = [b"3_4", b"+34", b"\xb2", b"-1", b"", b"0x22", b"34 34", b"9" * 5000]
        assert [self._raw_status(server, [v], body) for v in bad] == [400] * len(bad)
        assert self._raw_status(server, [size, size], body) == 400

    def test_oversized_body_413(self, server):
        assert _post(server, b"x" * 5000)[0] == 413  # server cap is 4096

    def test_invalid_utf8_400(self, server):
        assert _post(server, b"\xff\xfe nonsense")[0] == 400

    def test_error_body_carries_no_internals(self, server):
        status, body = _post(server, b"")
        assert status == 400
        assert set(json.loads(body)) <= {"error", "error_id"}

    def test_concurrent_requests_share_the_model(self, server):
        from concurrent.futures import ThreadPoolExecutor

        bodies = [
            f"Request number {i} asks about clause {i}. Another sentence.".encode()
            for i in range(8)
        ]
        expected = [_post(server, b) for b in bodies]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda b: _post(server, b), bodies))
        assert results == expected


def _read_answer(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """Status, header fields (lower-cased names) and body of the next answer
    on ``sock``, read up to its Content-Length."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-answer: {data!r}")
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    status_line, *lines = head.decode("latin-1").split("\r\n")
    fields = {name.lower(): value.strip() for name, value in (line.split(":", 1) for line in lines)}
    while len(body) < int(fields["content-length"]):
        body += sock.recv(65536)
    return int(status_line.split(" ", 2)[1]), fields, body


def _closed(sock: socket.socket) -> bool:
    """Whether the server has closed ``sock``: the next read finds the end."""
    return sock.recv(1) == b""


@contextlib.contextmanager
def _connection(server):
    with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=10) as sock:
        yield sock


def _request(method: str, path: str, body: bytes = b"", version: str = "HTTP/1.1", fields: str = "") -> bytes:
    head = f"{method} {path} {version}\r\nHost: localhost\r\n{fields}"
    if body:
        head += f"Content-Type: text/plain\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


BODY = b"The provider may terminate the account at any time."


class TestRequestHead:
    """The handler's own request-head parser: the limits and codes of
    http.server, RFC 9112's field syntax, and a JSON body on every refusal."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            pytest.param(b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, id="request-line-too-long"),
            pytest.param(_request("GET", "/health", fields="X-Long: " + "y" * 65536 + "\r\n"), 431,
                         id="header-line-too-long"),
            pytest.param(_request("GET", "/health", fields="X-Many: y\r\n" * 100), 431, id="101-header-fields"),
            pytest.param(_request("PUT", "/analyze", BODY), 501, id="unsupported-method"),
            pytest.param(_request("POST", "/analyze", fields="Transfer-Encoding: chunked\r\n")
                         + b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY), 411, id="chunked-body"),
            pytest.param(_request("GET", "/health", fields="No colon here\r\n"), 400, id="field-without-colon"),
            pytest.param(_request("GET", "/health", fields="Accept : */*\r\n"), 400,
                         id="whitespace-before-colon"),
            pytest.param(_request("GET", "/health", fields="Accept: text/plain,\r\n */*\r\n"), 400,
                         id="obs-fold"),
            pytest.param(_request("GET", "/health", fields="Accept: a\x00b\r\n"), 400, id="nul-in-value"),
            pytest.param(_request("GET", "/health", version="HTTP/2.0"), 505, id="http-2.0"),
            pytest.param(_request("GET", "/health", version="HTTP/1.2"), 505, id="http-1.2"),
            pytest.param(_request("GET", "/health", version="HTTP/1.1x"), 400, id="bad-version"),
            pytest.param(b"GET /health\r\n\r\n", 400, id="no-version"),
        ],
    )
    def test_refusal_is_json_and_closes(self, server, request_bytes, status):
        with _connection(server) as sock:
            sock.sendall(request_bytes)
            got, fields, body = _read_answer(sock)
            assert (got, fields["content-type"], fields["connection"]) == (status, "application/json", "close")
            assert set(json.loads(body)) == {"error"}
            assert _closed(sock)

    def test_a_hundred_header_fields_are_served(self, server):
        with _connection(server) as sock:
            # http.server itself took 99, counting the blank line as a field
            sock.sendall(_request("GET", "/health", fields="X-Many: y\r\n" * 99))  # and Host
            assert _read_answer(sock)[0] == 200

    def test_no_request_reaches_the_email_header_parser(self, server, monkeypatch):
        def parse_headers(*args, **kwargs):
            raise AssertionError("http.client.parse_headers read a request head")

        monkeypatch.setattr(http.client, "parse_headers", parse_headers)
        with _connection(server) as sock:  # a raw client: http.client would parse the answers
            for request in (_request("POST", "/analyze", BODY), _request("GET", "/health")):
                sock.sendall(request)
                assert _read_answer(sock)[0] == 200

    def test_each_answer_leaves_in_one_write(self, server, monkeypatch):
        writes = []
        real_write = socketserver._SocketWriter.write

        def write(self, data):
            writes.append(bytes(data))
            return real_write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", write)
        with _connection(server) as sock:
            answers = []
            for request in (_request("POST", "/analyze", BODY), _request("GET", "/health"),
                            _request("GET", "/nope")):
                sock.sendall(request)
                answers.append(_read_answer(sock))
        assert [a[0] for a in answers] == [200, 200, 404]
        assert len(writes) == 3
        for data, (_, _, body) in zip(writes, answers):
            assert data.startswith(b"HTTP/1.1 ") and data.endswith(b"\r\n\r\n" + body)


def test_the_date_field_is_formatted_once_a_second(server, monkeypatch):
    formatted = []
    real_formatdate = email.utils.formatdate

    def formatdate(timeval=None, localtime=False, usegmt=False):
        formatted.append(timeval)
        return real_formatdate(timeval, localtime, usegmt)

    clock = [1_700_000_000.25]
    monkeypatch.setattr(time, "time", lambda: clock[0])
    monkeypatch.setattr(email.utils, "formatdate", formatdate)
    dates = []
    with _connection(server) as sock:
        for now in (1_700_000_000.25, 1_700_000_000.75, 1_700_000_001.5):
            clock[0] = now
            sock.sendall(_request("POST", "/analyze", BODY))
            status, fields, _ = _read_answer(sock)
            assert status == 200
            dates.append(fields["date"])
    assert dates[0] == dates[1] == real_formatdate(1_700_000_000, usegmt=True)
    assert dates[2] == real_formatdate(1_700_000_001, usegmt=True)
    assert formatted == [1_700_000_000, 1_700_000_001]


def test_threads_sharing_the_date_field_each_get_their_own_second(monkeypatch):
    # every call reads a later second; a torn or stale cache would answer
    # with a second outside the window its thread saw
    seconds = itertools.count(1_700_000_000)
    monkeypatch.setattr(time, "time", lambda: float(next(seconds)))
    handler = service.AnalyzeHandler.__new__(service.AnalyzeHandler)
    wrong = []

    def hammer():
        for _ in range(300):
            before = next(seconds)
            text = handler.date_time_string()
            after = next(seconds)
            second = int(email.utils.parsedate_to_datetime(text).timestamp())
            if not before < second < after or text != email.utils.formatdate(second, usegmt=True):
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


class TestConnections:
    def test_http_1_1_keeps_the_connection_alive(self, server):
        with _connection(server) as sock:
            for _ in range(3):
                sock.sendall(_request("POST", "/analyze", BODY))
                status, fields, _ = _read_answer(sock)
                assert status == 200 and "connection" not in fields

    def test_http_1_1_closes_when_asked(self, server):
        with _connection(server) as sock:
            sock.sendall(_request("GET", "/health", fields="Connection: close\r\n"))
            status, fields, _ = _read_answer(sock)
            assert (status, fields["connection"]) == (200, "close")
            assert _closed(sock)

    def test_http_1_0_closes_the_connection(self, server):
        with _connection(server) as sock:
            sock.sendall(_request("POST", "/analyze", BODY, version="HTTP/1.0"))
            status, fields, _ = _read_answer(sock)
            assert (status, fields["connection"]) == (200, "close")
            assert _closed(sock)

    def test_http_1_0_keeps_alive_on_request(self, server):
        with _connection(server) as sock:
            for _ in range(2):
                sock.sendall(_request("POST", "/analyze", BODY, "HTTP/1.0", "Connection: keep-alive\r\n"))
                status, fields, _ = _read_answer(sock)
                assert (status, fields["connection"]) == (200, "keep-alive")

    def test_expect_100_continue(self, server):
        expected = _post(server, BODY)
        with _connection(server) as sock:
            request = _request("POST", "/analyze", BODY, fields="Expect: 100-continue\r\n")
            head = request[: -len(BODY)]
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(BODY)
            status, _, body = _read_answer(sock)
        assert (status, body) == expected

    def test_silent_connection_is_closed_and_others_are_served(self, server, monkeypatch):
        assert service.AnalyzeHandler.timeout == 30.0
        monkeypatch.setattr(service.AnalyzeHandler, "timeout", 0.2)
        with _connection(server) as silent:
            start = time.perf_counter()
            assert _post(server, BODY)[0] == 200
            assert _closed(silent)
            assert time.perf_counter() - start < 5.0


def test_kernel_model_without_fallback_answers_400(mini_kernel_model_without_fallback):
    with serving(mini_kernel_model_without_fallback) as srv:
        status, body = _post(srv, b"The provider may terminate the account at any time.")
    assert status == 400
    assert json.loads(body) == {"error": "this model needs parse trees, which the service cannot supply"}


def test_kernel_support_is_compiled_before_bind_and_never_per_request(mini_kernel_model, monkeypatch):
    compiled = []
    real_init = CompiledTrees.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        compiled.append(self)

    class RecordingServer(service._QuietServer):
        def __init__(self, *args, **kwargs):
            self.compiled_before_bind = len(compiled)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(CompiledTrees, "__init__", counting_init)
    monkeypatch.setattr(service, "_QuietServer", RecordingServer)
    with serving(mini_kernel_model) as srv:
        assert srv.compiled_before_bind == 1
        assert srv.RequestHandlerClass.predictor.support is compiled[0]
        for i in range(4):
            assert _post(srv, f"The provider may terminate account {i} at any time.".encode())[0] == 200
    assert len(compiled) == 1
