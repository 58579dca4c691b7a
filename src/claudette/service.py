"""Single-endpoint analysis service.

POST /analyze with a plain-text body returns the analysis as JSON; GET
/health reports model metadata.  The model is compiled into a Predictor once,
before the server binds its port (a kernel model's support trees with it),
and shared read-only across request threads; identical bodies produce
identical responses.

One loop on ``socketserver``, ``AnalyzeHandler.handle``, keeps each HTTP/1.1
rule of the service (RFC 9112).  It reads a request's head in one pass and
sends each answer, status line, header fields and body, in one write, with
Nagle's algorithm off.  A connection stays open until the client closes it or
asks to (HTTP/1.0 must ask for keep-alive), a request is refused, or nothing
arrives for 30 s.  Every refusal has a JSON body: 400 for a malformed request
line or header field or a body shorter than its Content-Length, 411 for a
Transfer-Encoding, 413 for a body over the byte cap or of more than
``MAX_SENTENCES`` sentences, 414 and 431 for a request or header line over
65,536 bytes or more than 100 header fields, 501 for a method other than GET
or POST, and 505 for an HTTP version other than 1.0 and 1.1.  Neither
``http.server`` nor ``http.client`` is imported, so ``ssl`` is not either.
"""

from __future__ import annotations

import email.utils
import logging
import re
import socketserver
import sys
import time
import uuid
from http import HTTPStatus

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
_SERVER = f"claudette Python/{sys.version.split()[0]}"
_VERSION = re.compile(rb"HTTP/[0-9]\.[0-9]")
# RFC 9112 5.1: a token, a colon, the value between optional spaces and tabs
_FIELD_LINE = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t]*([^\r\n\0]*?)[ \t]*\r?\n")


def _error_body(message: str, error_id: str | None = None) -> bytes:
    body: dict = {"error": message}
    if error_id is not None:
        body["error_id"] = error_id
    return canonical_json_bytes(body)


class AnalyzeHandler(socketserver.StreamRequestHandler):
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

    def handle(self) -> None:
        """Answer the requests on one connection in turn, until it is to
        close, the client leaves, or nothing arrives for ``timeout`` s."""
        try:
            while self.parse_request():
                if self.command == "GET":
                    self.do_GET()
                elif self.command == "POST":
                    self.do_POST()
                else:
                    self._send(501, _error_body(f"Unsupported method ({self.command!r})"))
                if self.close_connection:
                    return
        except (TimeoutError, ConnectionError):
            pass

    def date_time_string(self) -> str:
        """The Date field for now, formatted once a second: the text
        ``email.utils.formatdate`` gives for the current second, which the
        handler threads share."""
        now = int(time.time())
        second, text = AnalyzeHandler._date
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            AnalyzeHandler._date = (now, text)
        return text

    def parse_request(self) -> bool:
        """Read the next request line and its header fields, in one pass.  On
        success ``fields`` maps each lower-cased field name to its values in
        arrival order; on failure, the end of input included, the connection
        is to close and any error answer is sent.  The syntax is RFC 9112's."""
        self.close_connection = True
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            self._send(414, _error_body(HTTPStatus(414).phrase))
            return False
        words = line.split()
        if not words:
            return False
        if len(words) != 3:
            self._send(400, _error_body("bad request line"))
            return False
        version = words[2]
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            if _VERSION.fullmatch(version):
                self._send(505, _error_body("only HTTP/1.0 and HTTP/1.1 are supported"))
            else:
                self._send(400, _error_body("bad HTTP version"))
            return False
        self.command, self.path = words[0].decode("iso-8859-1"), words[1].decode("iso-8859-1")
        self.request_version = version.decode()
        fields: dict[str, list[str]] = {}
        self.fields = fields
        for _ in range(_MAX_FIELDS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self._send(431, _error_body(f"a header line exceeds {_MAX_LINE} bytes"))
                return False
            if line in (b"\r\n", b"\n"):
                break
            if not line:  # the client left mid-request
                return False
            match = _FIELD_LINE.fullmatch(line)
            if match is None:
                # no colon, whitespace before it, an obs-fold continuation,
                # or CR or NUL in the value (RFC 9112 5.1-5.2)
                self._send(400, _error_body("malformed header field line"))
                return False
            name, value = match.groups()
            fields.setdefault(name.decode("ascii").lower(), []).append(value.decode("iso-8859-1"))
        else:
            self._send(431, _error_body(f"more than {_MAX_FIELDS} header fields"))
            return False
        if "transfer-encoding" in fields:
            self._send(411, _error_body("Transfer-Encoding is not supported; send a Content-Length"))
            return False
        options = {o.strip().lower() for v in fields.get("connection", ()) for o in v.split(",")}
        self.close_connection = "close" in options or (
            version == b"HTTP/1.0" and "keep-alive" not in options
        )
        return True

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        """The status line, the header fields and the body, in one write."""
        if status >= 400:
            self.close_connection = True
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {_SERVER}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        elif self.request_version == "HTTP/1.0":
            head += "Connection: keep-alive\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

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


class _QuietServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def make_server(
    bundle: ModelBundle, port: int = 0, max_bytes: int = DEFAULT_MAX_BYTES
) -> _QuietServer:
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
