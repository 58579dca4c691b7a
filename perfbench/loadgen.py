"""HTTP load generator for ``POST /analyze``: one process, keep-alive
connections, an open loop on a precomputed schedule and a closed loop.

Open loop: request ``i`` is due at ``start + i / rate`` whatever happened to
earlier requests, so a stall shows up as latency of the requests behind it.
Latency is timed from the due time.  Each connection takes the next due
request as soon as it is free, so with every connection busy a request waits
in the generator; that wait is reported as queue wait.  A request whose
connection was free but whose sender woke up late adds to the generator lag,
which says how far the generator itself fell behind its schedule.

Closed loop: every connection sends its next request as soon as the previous
answer arrived; completed requests per second is the saturation rate.

A request fails when the status is not 200, the body differs from the
expected bytes, or the connection times out or breaks.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field

TIMEOUT_S = 10.0
OPEN_LOOP_GRACE_S = 30.0


@dataclass
class Sample:
    index: int  # body index
    due: float
    free: float  # when the connection became free for this request
    sent: float
    done: float
    ok: bool


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    answers: dict[int, bytes] = field(default_factory=dict)  # first 200 body per body index
    unsent: int = 0  # scheduled requests dropped at the deadline; they count as failed

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.ok]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


class _Connection:
    def __init__(self, port: int):
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            self.conn.request(
                "POST", "/analyze", body=body,
                headers={"Content-Type": "text/plain; charset=utf-8"},
            )
            resp = self.conn.getresponse()
            data = resp.read()
            if resp.getheader("Connection", "").lower() == "close":
                self.close()
            return resp.status, data
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def wait_healthy(port: int, deadline: float) -> bool:
    """Poll ``GET /health`` until it answers 200 or the deadline passes."""
    while time.perf_counter() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    return True
            finally:
                conn.close()
        except (OSError, http.client.HTTPException):
            pass
        time.sleep(0.005)
    return False


def _run(port: int, bodies: list[bytes], expected: list[bytes], connections: int,
         next_request) -> LoopResult:
    result = LoopResult()
    lock = threading.Lock()

    def worker() -> None:
        conn = _Connection(port)
        try:
            while True:
                free = time.perf_counter()
                with lock:
                    job = next_request(free)
                if job is None:
                    return
                i, due = job
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                status, data = conn.post(bodies[i])
                done = time.perf_counter()
                ok = status == 200 and data == expected[i]
                with lock:
                    result.samples.append(Sample(i, due, free, sent, done, ok))
                    if ok and i not in result.answers:
                        result.answers[i] = data
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.elapsed_s = time.perf_counter() - start
    return result


def open_loop(port: int, bodies: list[bytes], expected: list[bytes], rate: float,
              seconds: float, connections: int) -> LoopResult:
    """Send ``rate * seconds`` requests on a fixed-rate schedule, bodies in
    pool order.  Requests not sent ``OPEN_LOOP_GRACE_S`` after the schedule
    ends are dropped and counted as unsent, so a stalled server cannot keep
    the run going."""
    total = max(1, int(rate * seconds))
    start = time.perf_counter() + 0.01
    schedule = [start + i / rate for i in range(total)]
    deadline = schedule[-1] + OPEN_LOOP_GRACE_S
    cursor = iter(range(total))
    sent = 0

    def next_request(now: float):
        nonlocal sent
        i = next(cursor, None)
        if i is None or now > deadline:
            return None
        sent += 1
        return i % len(bodies), schedule[i]

    result = _run(port, bodies, expected, connections, next_request)
    result.unsent = total - sent
    return result


def each_once(port: int, bodies: list[bytes], expected: list[bytes], connections: int) -> LoopResult:
    """Every body once, back to back: the untimed coverage pass."""
    cursor = iter(range(len(bodies)))

    def next_request(now: float):
        i = next(cursor, None)
        return None if i is None else (i, now)

    return _run(port, bodies, expected, connections, next_request)


def closed_loop(port: int, bodies: list[bytes], expected: list[bytes], seconds: float,
                connections: int) -> LoopResult:
    """Back-to-back requests on every connection until ``seconds`` have passed."""
    stop = time.perf_counter() + seconds
    cursor = iter(range(1 << 62))

    def next_request(now: float):
        if now >= stop:
            return None
        return next(cursor) % len(bodies), now

    return _run(port, bodies, expected, connections, next_request)
