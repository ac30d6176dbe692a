"""Open-loop HTTP load generator for the serve workloads.

One process, one asyncio loop, at most ``connections`` keep-alive
connections.  Requests are pipelined: each send is written the moment it
is due, whatever is still in flight, so the server's pace — not a
client round trip — sets the answer times.  Request bodies are built
before the clock starts; only a workflow's window is patched at send
time, rebased onto the service's current slot (the virtual clock moves
with work, so absolute windows would expire mid-run).

Each request is timed from the moment it was *due*, so a stall delays
every later answer by the full stall.  How late the generator itself
wrote each request (``lag``) is recorded separately: a run whose lag
tail is large measured the generator, not the server.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass

#: A send whose answer has not arrived this long after the last send is
#: a timeout (counted as failed, unless the caller set a shorter grace).
ANSWER_GRACE_S = 10.0
#: Poll ``GET /status`` this often to follow the service's virtual clock.
STATUS_POLL_S = 0.1


@dataclass
class Send:
    """One scheduled submission and what came back."""

    due: float  # seconds after the phase start
    kind: str  # "workflow" | "adhoc"
    entity_id: str
    request_id: str
    body: bytes | None = None  # pre-built ad-hoc body
    workflow: dict | None = None  # workflow wire dict, window patched at send
    window: int = 0  # workflow deadline - start, in slots
    sent: float = -1.0  # actual write time, seconds after phase start
    answered: float = -1.0
    status: int = 0
    reason: str = ""
    shard: str = ""

    @property
    def latency_s(self) -> float:
        return self.answered - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def _request(
    method: str, path: str, body: bytes, request_id: str = "", close: bool = False
) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: bench"]
    if close:
        head.append("Connection: close")
    if request_id:
        head.append(f"X-Request-Id: {request_id}")
    if body:
        head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()  # Send | "status" in write order
        self.closed = False


async def _read_answers(conn: _Connection, origin: float, state: dict) -> None:
    reader = conn.reader
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            status = int(line.split(b" ", 2)[1])
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            body = await reader.readexactly(length) if length else b""
            now = time.perf_counter() - origin
            item = conn.pending.popleft()
            if item == "status":
                state["slot"] = int(json.loads(body)["slot"])
                continue
            item.answered = now
            item.status = status
            try:
                answer = json.loads(body)
            except ValueError:
                answer = {}
            item.reason = str(answer.get("reason", answer.get("error", "")))
            item.shard = str(answer.get("shard", ""))
            state["answered"] += 1
            if state["answered"] == state["expected"]:
                state["done"].set()
    except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
        pass  # a broken connection leaves its sends unanswered: failures
    finally:
        conn.closed = True
        if all(c.closed for c in state["conns"]):
            state["done"].set()


def _lane(send: Send, index: int, n_conns: int, mixed: bool) -> int:
    """Connection for a send.  A connection answers in order, so in a
    mixed stream workflows (slow: admission runs first) get the first
    connection and ad-hoc jobs the rest, and an admission never holds an
    ad-hoc answer back behind it on the wire."""
    if mixed and n_conns > 1:
        return 0 if send.kind == "workflow" else 1 + index % (n_conns - 1)
    return index % n_conns


def _patch_workflow(send: Send, slot: int) -> bytes:
    wf = send.workflow
    wf["start_slot"] = slot
    wf["deadline_slot"] = slot + send.window
    return json.dumps(wf, separators=(",", ":")).encode("utf-8")


async def _drive(
    host: str,
    port: int,
    sends: list[Send],
    connections: int,
    poll_status: bool,
    grace_s: float,
) -> None:
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(_Connection(reader, writer))
    state = {
        "answered": 0,
        "expected": len(sends),
        "done": asyncio.Event(),
        "slot": 0,
        "conns": conns,
    }
    origin = time.perf_counter()
    readers = [
        asyncio.create_task(_read_answers(conn, origin, state)) for conn in conns
    ]
    mixed = any(send.kind == "workflow" for send in sends)
    status_request = _request("GET", "/status", b"")
    if poll_status:
        conns[0].pending.append("status")
        conns[0].writer.write(status_request)
    next_poll = STATUS_POLL_S
    for i, send in enumerate(sends):
        now = time.perf_counter() - origin
        if send.due > now:
            await asyncio.sleep(send.due - now)
            now = time.perf_counter() - origin
        if poll_status and now >= next_poll:
            conns[0].pending.append("status")
            conns[0].writer.write(status_request)
            next_poll = now + STATUS_POLL_S
        conn = conns[_lane(send, i, len(conns), mixed)]
        if conn.closed:
            continue  # counted as unanswered
        if send.workflow is not None:
            path, body = "/workflows", _patch_workflow(send, state["slot"])
        else:
            path, body = "/jobs", send.body
        send.sent = time.perf_counter() - origin
        conn.pending.append(send)
        conn.writer.write(_request("POST", path, body, send.request_id))
        if conn.writer.transport.get_write_buffer_size() > 1 << 20:
            await conn.writer.drain()
    if state["answered"] < len(sends):
        try:
            await asyncio.wait_for(state["done"].wait(), timeout=grace_s)
        except asyncio.TimeoutError:
            pass
    for conn in conns:
        conn.writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for conn in conns:
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def drive(
    host: str,
    port: int,
    sends: list[Send],
    *,
    connections: int,
    poll_status: bool = True,
    grace_s: float = ANSWER_GRACE_S,
) -> None:
    """Send *sends* open-loop at their due times; block until answered or
    *grace_s* after the last send.  Results are recorded on each send.

    With *poll_status*, ``GET /status`` rides the first connection every
    :data:`STATUS_POLL_S`: the answers give workflow sends the current
    slot.
    """
    return asyncio.run(_drive(host, port, sends, connections, poll_status, grace_s))


def get_json(host: str, port: int, path: str, timeout: float = 10.0) -> dict:
    """One blocking ``GET`` on a fresh connection (setup and scraping)."""

    async def fetch() -> dict:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        try:
            writer.write(_request("GET", path, b"", close=True))
            raw = await asyncio.wait_for(reader.read(), timeout)
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(body)

    return asyncio.run(fetch())
