"""Open-loop HTTP load generator (one process, a bounded set of connections).

Requests are due on a fixed schedule, ``i / rate`` seconds after the
start, whether or not earlier ones have been answered: independent users
make an open loop.  A request waits for one of ``connections`` slots
before it is sent, so a stalled server makes later requests late.
Latency is measured from the *due* time, which charges that wait to the
server; how late the generator itself sent each request is reported
separately.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class Outcome:
    """What happened to one request (times in ``perf_counter`` seconds)."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Due to answered: the user's wait, generator stalls included."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Due to sent: how far behind schedule the generator ran."""
        return self.sent - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent

    def payload(self) -> Optional[dict]:
        try:
            return json.loads(self.body)
        except ValueError:
            return None


def due_times(start: float, rate: float, count: int) -> List[float]:
    """The open-loop schedule: request ``i`` is due at ``start + i / rate``."""
    return [start + i / rate for i in range(count)]


async def _post(host: str, port: int, path: str, body: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, payload


async def _run(host: str, port: int, bodies: Sequence[bytes], rate: Optional[float],
               connections: int) -> List[Outcome]:
    clock = time.perf_counter
    slots = asyncio.Semaphore(connections)
    start = clock() + 0.01
    schedule = (
        due_times(start, rate, len(bodies)) if rate else [start] * len(bodies)
    )
    outcomes = [Outcome(i, due) for i, due in enumerate(schedule)]

    async def one(outcome: Outcome) -> None:
        async with slots:
            outcome.sent = clock()
            try:
                outcome.status, outcome.body = await asyncio.wait_for(
                    _post(host, port, "/analyze", bodies[outcome.index]), 60.0
                )
            except (OSError, asyncio.TimeoutError):
                outcome.status = 0
            outcome.done = clock()

    tasks = []
    for outcome in outcomes:
        delay = outcome.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(outcome)))
    await asyncio.gather(*tasks)
    return outcomes


def send(host: str, port: int, bodies: Sequence[bytes], rate: Optional[float],
         connections: int) -> List[Outcome]:
    """Send ``bodies`` open-loop at ``rate``/s (all due at once when
    ``rate`` is None, which makes a closed loop over ``connections``)."""
    return asyncio.run(_run(host, port, bodies, rate, connections))


def get_json(host: str, port: int, path: str) -> Optional[dict]:
    """One ``GET`` (for ``/stats``)."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    except (OSError, ValueError):
        return None
    finally:
        conn.close()
