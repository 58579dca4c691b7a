from __future__ import annotations

import contextlib
import http.client
import json
import socket
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
