from __future__ import annotations

import contextlib
import json
import threading
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


def _post(server, body: bytes, content_type: str | None = "text/plain; charset=utf-8"):
    headers = {}
    if content_type is not None:
        headers["Content-Type"] = content_type
    req = urllib.request.Request(_url(server, "/analyze"), data=body, headers=headers)
    return urllib.request.urlopen(req)


class TestHealth:
    def test_health_reports_model_metadata(self, server):
        resp = urllib.request.urlopen(_url(server, "/health"))
        assert resp.status == 200
        record = json.loads(resp.read())
        assert record == {"status": "ok", "model_kind": "linear-bow", "format_version": 1}

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(_url(server, "/nope"))
        assert err.value.code == 404


class TestAnalyze:
    def test_parity_with_cli_predict(self, server, served_model, capsysbinary):
        doc = FIXTURES / "planted" / "doc01.txt"
        resp = _post(server, doc.read_bytes())
        service_bytes = resp.read()
        assert main(["predict", "--model", str(served_model), "--input", str(doc)]) == 0
        cli_bytes = capsysbinary.readouterr().out
        assert service_bytes == cli_bytes

    def test_identical_bodies_identical_responses(self, server):
        body = b"The provider may change anything. Nothing else matters."
        assert _post(server, body).read() == _post(server, body).read()

    def test_empty_body_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, b"")
        assert err.value.code == 400

    def test_whitespace_body_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, b"   \n  ")
        assert err.value.code == 400

    def test_non_text_content_type_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, b"{}", content_type="application/json")
        assert err.value.code == 400

    def test_missing_content_type_accepted(self, server):
        import http.client

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

    def test_oversized_body_413(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, b"x" * 5000)  # server cap is 4096
        assert err.value.code == 413

    def test_invalid_utf8_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, b"\xff\xfe nonsense")
        assert err.value.code == 400

    def test_error_body_carries_no_internals(self, server):
        try:
            _post(server, b"")
        except urllib.error.HTTPError as err:
            record = json.loads(err.read())
            assert set(record) <= {"error", "error_id"}

    def test_concurrent_requests_share_the_model(self, server):
        from concurrent.futures import ThreadPoolExecutor

        bodies = [
            f"Request number {i} asks about clause {i}. Another sentence.".encode()
            for i in range(8)
        ]
        expected = [_post(server, b).read() for b in bodies]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda b: _post(server, b).read(), bodies))
        assert results == expected


def test_kernel_model_without_fallback_answers_400(mini_kernel_model_without_fallback):
    with serving(mini_kernel_model_without_fallback) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(srv, b"The provider may terminate the account at any time.")
    assert err.value.code == 400
    assert json.loads(err.value.read()) == {
        "error": "this model needs parse trees, which the service cannot supply"
    }


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
            _post(srv, f"The provider may terminate account {i} at any time.".encode()).read()
    assert len(compiled) == 1
