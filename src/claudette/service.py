"""Single-endpoint analysis service.

POST /analyze with a plain-text body returns the analysis as JSON; GET
/health reports model metadata.  The model is compiled into a Predictor once,
before the server accepts connections, and shared read-only across request
threads; identical bodies produce identical responses.
"""

from __future__ import annotations

import logging
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .analyze import Predictor, result_json
from .features import MissingTree
from .modelio import FORMAT_VERSION, ModelBundle, canonical_json_bytes

log = logging.getLogger(__name__)

DEFAULT_MAX_BYTES = 1 << 20  # 1 MiB


def _error_body(message: str, error_id: str | None = None) -> bytes:
    body: dict = {"error": message}
    if error_id is not None:
        body["error_id"] = error_id
    return canonical_json_bytes(body)


class AnalyzeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "claudette"

    # set by make_server
    predictor: Predictor = None  # type: ignore[assignment]
    max_bytes: int = DEFAULT_MAX_BYTES

    def log_message(self, fmt: str, *args) -> None:  # route to logging, not stderr
        log.debug("%s " + fmt, self.address_string(), *args)

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        if status >= 400:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_GET(self) -> None:
        if self.path != "/health":
            self._send(404, _error_body("not found"))
            return
        body = canonical_json_bytes(
            {
                "status": "ok",
                "model_kind": self.predictor.kind,
                "format_version": FORMAT_VERSION,
            }
        )
        self._send(200, body)

    def do_POST(self) -> None:
        if self.path != "/analyze":
            self._send(404, _error_body("not found"))
            return
        content_type = self.headers.get("Content-Type")
        if content_type is not None and not content_type.strip().lower().startswith("text/"):
            self._send(400, _error_body(f"content type must be text/*, got {content_type!r}"))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, _error_body("bad Content-Length"))
            return
        if length > self.max_bytes:
            self._send(413, _error_body(f"body exceeds the {self.max_bytes}-byte cap"))
            return
        raw = self.rfile.read(length) if length else b""
        if not raw.strip():
            self._send(400, _error_body("empty body"))
            return
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            self._send(400, _error_body("body is not valid UTF-8"))
            return
        try:
            result = self.predictor.analyze(text)
        except MissingTree:
            self._send(400, _error_body("this model needs parse trees, which the service cannot supply"))
            return
        except Exception:
            error_id = uuid.uuid4().hex[:12]
            log.exception("analysis failed (error id %s)", error_id)
            self._send(500, _error_body("internal error", error_id))
            return
        self._send(200, result_json(result))


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return  # client dropped the connection; not our problem
        super().handle_error(request, client_address)


def make_server(
    bundle: ModelBundle, port: int = 0, max_bytes: int = DEFAULT_MAX_BYTES
) -> ThreadingHTTPServer:
    """Build (but do not start) the service; port 0 picks a free port."""
    handler = type(
        "BoundAnalyzeHandler",
        (AnalyzeHandler,),
        {"predictor": Predictor(bundle), "max_bytes": max_bytes},
    )
    return _QuietServer(("127.0.0.1", port), handler)


def serve(bundle: ModelBundle, port: int, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
    server = make_server(bundle, port, max_bytes)
    host, bound_port = server.server_address[:2]
    log.info("serving %s model on %s:%s", bundle.kind, host, bound_port)
    print(f"listening on http://{host}:{bound_port} (model: {bundle.kind})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
