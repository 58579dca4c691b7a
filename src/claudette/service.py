"""Single-endpoint analysis service.

POST /analyze with a plain-text body returns the analysis as JSON; GET
/health reports model metadata.  The model is compiled into a Predictor once,
before the server binds its port (a kernel model's support trees with it),
and shared read-only across request threads; identical bodies produce
identical responses.  Connections are kept alive, with Nagle's algorithm off.

The handler reads a request's head itself, in one pass (RFC 9112), and sends
each answer, status line, header fields and body, in one write.  Every
refusal has a JSON body: 400 for a malformed request line or header field or
a body shorter than its Content-Length, 411 for a Transfer-Encoding, 413 for
a body over the byte cap or of more than ``MAX_SENTENCES`` sentences, 414
and 431 for a request or header line over 65,536 bytes or more than 100
header fields, 501 for a method other than GET or POST, and 505 for an HTTP
version other than 1.0 and 1.1.  A connection with
nothing to read for 30 s is closed.  The Date field is formatted once a
second, not once an answer.
"""

from __future__ import annotations

import email.utils
import logging
import re
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import analyze
from .analyze import AnalysisResult, Predictor, result_json
from .corpus import TooManySentences
from .features import MissingTree
from .modelio import FORMAT_VERSION, ModelBundle, canonical_json_bytes

log = logging.getLogger(__name__)

DEFAULT_MAX_BYTES = 1 << 20  # 1 MiB
# sentences in one body: the paper's whole 50-document corpus has 12,011;
# 10,000 sentences of the planted corpus (791 kB) take 0.24-0.34 s to
# analyze and serialize (linear and chain models, one Xeon core, Python 3.11)
MAX_SENTENCES = 10_000
# http.server's limits: bytes in one request or header line, header fields
_MAX_LINE, _MAX_FIELDS = 65536, 100
_VERSION = re.compile(rb"HTTP/[0-9]\.[0-9]")
# RFC 9112 5.1: a token, a colon, the value between optional spaces and tabs
_FIELD_LINE = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t]*([^\r\n\0]*?)[ \t]*\r?\n")


def _error_body(message: str, error_id: str | None = None) -> bytes:
    body: dict = {"error": message}
    if error_id is not None:
        body["error_id"] = error_id
    return canonical_json_bytes(body)


class AnalyzeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "claudette"
    # an answer leaves in one write; a 100 Continue goes before it, and with
    # Nagle's algorithm on, the answer could wait for the client's delayed ACK
    disable_nagle_algorithm = True
    # seconds a connection may sit with no byte to read before it is closed
    timeout = 30.0

    # set by make_server
    predictor: Predictor = None  # type: ignore[assignment]
    max_bytes: int = DEFAULT_MAX_BYTES
    # the second of the last Date field and its text, swapped in one assignment
    _date: tuple[int, str] = (-1, "")

    def log_message(self, fmt: str, *args) -> None:  # route to logging, not stderr
        log.debug("%s " + fmt, self.address_string(), *args)

    def date_time_string(self, timestamp: float | None = None) -> str:
        """The Date field for now, formatted once a second: the text
        ``email.utils.formatdate`` gives for the current second, which the
        handler threads share."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        second, text = AnalyzeHandler._date
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            AnalyzeHandler._date = (now, text)
        return text

    def parse_request(self) -> bool:
        """Read the request line in ``raw_requestline`` and the header fields
        after it, in one pass.  On success ``fields`` maps each lower-cased
        field name to its values in arrival order; on failure the error answer
        is sent.  The syntax is RFC 9112's, with http.server's limits."""
        self.command = None
        self.request_version = ""
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.raw_requestline.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, "bad request line")
            return False
        version = words[2]
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            if _VERSION.fullmatch(version):
                self.send_error(505, "only HTTP/1.0 and HTTP/1.1 are supported")
            else:
                self.send_error(400, "bad HTTP version")
            return False
        self.command, self.path = words[0].decode("iso-8859-1"), words[1].decode("iso-8859-1")
        self.request_version = version.decode()
        fields: dict[str, list[str]] = {}
        self.fields = fields
        for _ in range(_MAX_FIELDS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, f"a header line exceeds {_MAX_LINE} bytes")
                return False
            if line in (b"\r\n", b"\n"):
                break
            if not line:  # the client left mid-request
                return False
            match = _FIELD_LINE.fullmatch(line)
            if match is None:
                # no colon, whitespace before it, an obs-fold continuation,
                # or CR or NUL in the value (RFC 9112 5.1-5.2)
                self.send_error(400, "malformed header field line")
                return False
            name, value = match.groups()
            fields.setdefault(name.decode("ascii").lower(), []).append(value.decode("iso-8859-1"))
        else:
            self.send_error(431, f"more than {_MAX_FIELDS} header fields")
            return False
        if "transfer-encoding" in fields:
            self.send_error(411, "Transfer-Encoding is not supported; send a Content-Length")
            return False
        options = {o.strip().lower() for v in fields.get("connection", ()) for o in v.split(",")}
        self.close_connection = "close" in options or (
            version == b"HTTP/1.0" and "keep-alive" not in options
        )
        return True

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Every refusal, http.server's own included, as a JSON error body."""
        self._send(code, _error_body(message or self.responses[code][0]))

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        """The status line, the header fields and the body, in one write."""
        if status >= 400:
            self.close_connection = True
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        elif self.request_version == "HTTP/1.0":
            head += "Connection: keep-alive\r\n"
        try:
            self.wfile.write(head.encode("latin-1") + b"\r\n" + body)
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
        content_type = self.fields.get("content-type", [None])[0]
        if content_type is not None and not content_type.lower().startswith("text/"):
            self._send(400, _error_body(f"content type must be text/*, got {content_type!r}"))
            return
        # RFC 9110 8.6: exactly one field of 1*DIGIT; int() alone would also
        # take "+33", "3_3" and surrounding Unicode space
        lengths = self.fields.get("content-length", ["0"])
        value = lengths[0]
        try:
            length = int(value) if len(lengths) == 1 and value.isascii() and value.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if length < 0:
            self._send(400, _error_body("bad Content-Length"))
            return
        if length > self.max_bytes:
            self._send(413, _error_body(f"body exceeds the {self.max_bytes}-byte cap"))
            return
        if length and self.request_version == "HTTP/1.1" and any(
            v.lower() == "100-continue" for v in self.fields.get("expect", ())
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:  # the client stopped sending early
            self._send(400, _error_body("body shorter than Content-Length"))
            return
        if not raw.strip():
            self._send(400, _error_body("empty body"))
            return
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            self._send(400, _error_body("body is not valid UTF-8"))
            return
        try:
            # looked up on analyze, as Predictor.analyze does, so one span on it times both
            sentences = analyze.segment_sentences(text, limit=MAX_SENTENCES)
            result = AnalysisResult(text, self.predictor.kind, *self.predictor.predict(sentences))
        except TooManySentences as err:  # raised before any sentence is tokenized
            self._send(413, _error_body(str(err)))
            return
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
