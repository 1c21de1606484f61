"""The ``service-mixed`` workload: one warm ``repro serve`` under load.

One server (``--jobs 1``, no store) is started and warmed with every
bundled kernel during set-up.  A single-process open-loop generator with
at most ``nproc`` connections then sends a seeded mix of two classes:

* *repeat* — a bundled kernel already in the verdict cache (front end,
  JSON, parse and cache rehydrate);
* *novel* — a fresh Delta-heavy routine rendered from ``random_nest``
  (the paper's tests do most of the work).

The whole run is one open loop at :data:`FIXED_RATE`, so the number of
requests depends on the seconds alone.  Every request counts in the
latency metrics; ``routines_per_s`` is the routines answered divided by
the summed latency, as on the other workloads.  Every answer is checked
afterwards against an in-process analysis of the same source.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import loadgen
from spans import counter_totals
from common import (
    BENCH_DIR,
    EXPECTED,
    SETUP_REPEATS,
    SRC,
    Tally,
    child_env,
    compile_bytecode,
    latency_metrics,
    median,
    nproc,
    read_json,
)

HOST = "127.0.0.1"
#: Offered load of the latency phase, requests per second: a fifth or
#: less of the server's capacity even when neighbours slow the host
#: threefold, so queueing does not amplify their noise.
FIXED_RATE = 15.0
#: Share of requests that are novel routines.  An assumption, not
#: measured traffic (there are no request logs to take it from): three
#: in ten keeps cached kernels the bulk of requests while the novel ones
#: still put the paper's tests at roughly a third of server time.
NOVEL_SHARE = 0.3
#: Novel routines sent while warming up (not measured).
WARM_NOVEL = 4
#: Novel routines checked against the brute-force oracle per run.
ORACLE_SAMPLE = 3
#: Requests per block of a traced run (one block of the mix): blocks
#: alternate between the untraced and the traced server.
TRACE_BLOCK = 10


class Request:
    __slots__ = ("kind", "name", "source", "body", "kernel")

    def __init__(self, kind: str, name: str, source: str, kernel: str = ""):
        self.kind, self.name, self.source, self.kernel = kind, name, source, kernel
        self.body = json.dumps({"source": source, "name": name}).encode()


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, work: Path, traced: bool):
        env = child_env(work / "pycache")
        serve = ["serve", "--port", "0", "--jobs", "1"]
        self.spans = work / "server-spans.json"
        if traced:
            command = [sys.executable, str(BENCH_DIR / "launch.py"), "--spans",
                       str(self.spans), "service", "--"] + serve
        else:
            command = [sys.executable, "-m", "repro"] + serve
        self.log = open(work / "server.log", "wb")
        self.proc = subprocess.Popen(
            command, env=env, cwd=work, stdout=subprocess.PIPE, stderr=self.log
        )
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            banner = self.proc.stdout.readline().decode()
        finally:
            killer.cancel()
        if "serving on http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server so far, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("the server's status has no VmHWM line")

    def stop(self) -> int:
        """Graceful SIGTERM drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


def kernel_requests() -> List[Request]:
    from inputs import kernel_files, kernel_id

    return [
        Request("repeat", path.stem, path.read_text(), kernel=kernel_id(path))
        for path in kernel_files()
    ]


def mixed_requests(rng: random.Random, kernels: List[Request], count: int,
                   block: int = TRACE_BLOCK) -> List[Request]:
    """``count`` requests; every ``block`` of them holds the same share of
    novel routines, at seeded places, so rounds are alike in their mix.
    The other slots go through the kernels in passes of a seeded order,
    every kernel once a pass, so runs are alike in their kernels too."""
    from inputs import novel_source

    requests: List[Request] = []
    kernel_pass: List[Request] = []
    while len(requests) < count:
        novel = set(rng.sample(range(block), round(block * NOVEL_SHARE)))
        for slot in range(block):
            if slot in novel:
                requests.append(Request("novel", *novel_source(rng.getrandbits(40))))
            else:
                if not kernel_pass:
                    kernel_pass = rng.sample(kernels, len(kernels))
                requests.append(kernel_pass.pop())
    return requests[:count]


def start_warm(work: Path, rng: random.Random, kernels: List[Request],
               traced: bool) -> Server:
    """Start a server and fill its verdict cache with every kernel."""
    from inputs import novel_source

    server = Server(work, traced)
    warm = kernels + [
        Request("novel", *novel_source(rng.getrandbits(40))) for _ in range(WARM_NOVEL)
    ]
    loadgen.send(HOST, server.port, [r.body for r in warm], None, 1)
    return server


def phase(server: Server, requests: List[Request], rate: float,
          connections: int) -> List[Tuple[Request, loadgen.Outcome]]:
    outcomes = loadgen.send(HOST, server.port, [r.body for r in requests], rate, connections)
    return list(zip(requests, outcomes))


def check_answers(answered: List[Tuple[Request, loadgen.Outcome]], tally: Tally) -> None:
    """Every answer must be a complete 200 equal to an in-process analysis."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from inputs import reference_routines

    from repro.corpus.loader import default_symbols
    from repro.engine import DependenceEngine

    symbols = default_symbols()
    references: Dict[str, list] = {}
    with DependenceEngine(symbols=symbols) as engine:
        for request, outcome in answered:
            payload = outcome.payload() if outcome.status == 200 else None
            ok = payload is not None and payload.get("status") == "ok"
            if ok:
                key = request.kernel or request.name
                if key not in references:
                    references[key] = reference_routines(
                        request.source, request.name, engine, symbols
                    )
                ok = payload.get("routines") == references[key]
            tally.unit(ok, f"{request.kind} {request.name}: HTTP {outcome.status} "
                           "or answer differs from in-process analysis")
    kernels = {request.kernel for request, _o in answered if request.kernel}
    for kernel in sorted(kernels & set(references)):
        expected = json.loads((EXPECTED / "service" / f"{kernel}.json").read_text())
        tally.unit(expected == references[kernel], f"{kernel} differs from expected")


def check_oracle(rng: random.Random, tally: Tally) -> None:
    from inputs import oracle_violations

    from repro.corpus.loader import default_symbols

    for _ in range(ORACLE_SAMPLE):
        checked, problems = oracle_violations(rng.getrandbits(40), default_symbols())
        tally.unit(checked > 0 and not problems, "; ".join(problems[:3]) or "no pairs")


def traced_layers(work: Path, seed: int, server: Server, kernels: List[Request],
                  requests: List[Request], tally: Tally
                  ) -> Tuple[Dict[str, float], list]:
    """Send ``requests`` to the untraced ``server`` and to a traced one.

    The list goes in blocks of :data:`TRACE_BLOCK`, each block to both
    servers in turn (which one first alternates), so a burst of host load
    falls on both alike and the tracing overhead compares like with like.
    Returns the per-layer metrics and every answer.
    """
    connections = nproc()
    traced_server = start_warm(work, random.Random(seed), kernels, traced=True)
    try:
        before = loadgen.get_json(HOST, traced_server.port, "/stats") or {}
        begin = time.perf_counter()
        untraced, traced = [], []
        for k in range(0, len(requests), TRACE_BLOCK):
            block = requests[k:k + TRACE_BLOCK]
            turns = [(server, untraced), (traced_server, traced)]
            if (k // TRACE_BLOCK) % 2:
                turns.reverse()
            for target, answers in turns:
                answers += phase(target, block, FIXED_RATE, connections)
        after = loadgen.get_json(HOST, traced_server.port, "/stats") or {}
    finally:
        code = traced_server.stop()
    tally.unit(code == 0, "server did not drain cleanly")
    dump = read_json(traced_server.spans) or {"spans": [], "events": []}
    # Warm-up requests ran traced too: keep only the blocks' spans.
    tables = layers.span_tables([[s for s in dump["spans"] if s[2] >= begin]])
    ops = len(traced)
    rtt_ms = 1000.0 * sum(o.round_trip for _r, o in traced) / ops
    analyze_ms = 1000.0 * tables["inclusive"].get("service.analyze", 0.0) / ops
    service_stats = after.get("service", {})
    extra = {
        "service.frontend_ms": rtt_ms - analyze_ms,
        "service.shed": float(service_stats.get("shed", 0)),
        "service.coalesced": float(service_stats.get("coalesced", 0)),
        "bench.generator_lag_ms": 1000.0 * sum(o.lateness for _r, o in traced) / ops,
    }
    summary = layers.stats_summary(before.get("engine", {}), after.get("engine", {}))
    counters = counter_totals(dump["events"], since=begin)
    values = layers.layer_metrics(tables, counters, summary, ops, extra)
    untraced_ms = 1000.0 * sum(o.round_trip for _r, o in untraced) / len(untraced)
    layers.account(values, untraced_ms, rtt_ms, outside_ms=extra["service.frontend_ms"])
    return values, untraced + traced


def run(work: Path, seed: int, seconds: float, trace: bool,
        tally: Tally) -> Tuple[Dict[str, float], List[str]]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rng = random.Random(seed)
    connections = nproc()
    setup_times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        compile_bytecode(work / "pycache")
        kernels = kernel_requests()
        server = start_warm(work, random.Random(seed), kernels, traced=False)
        setup_times.append(time.perf_counter() - start)
        if k + 1 < SETUP_REPEATS:
            tally.unit(server.stop() == 0, "server did not drain cleanly")

    # A traced run sends one request list twice: to this untraced server
    # and to a traced one, so the overhead compares like with like.
    share = 0.5 if trace else 1.0
    requests = mixed_requests(rng, kernels, max(int(FIXED_RATE * seconds * share), 1))
    notes = [
        f"service-mixed: {len(requests)} requests at {FIXED_RATE:g}/s "
        f"over {connections} connections"
    ]
    if trace:
        try:
            values, answered = traced_layers(work, seed, server, kernels, requests, tally)
        finally:
            tally.unit(server.stop() == 0, "server did not drain cleanly")
    else:
        answered = phase(server, requests, FIXED_RATE, connections)
        peak_rss_mb = server.peak_rss_mb()  # after a fixed amount of work
        tally.unit(server.stop() == 0, "server did not drain cleanly")
        values, note = latency_metrics(
            [o.latency for _r, o in answered],
            [o.latency for r, o in answered if r.kind == "repeat"],
            [o.latency for r, o in answered if r.kind == "novel"],
        )
        routines = sum(len((o.payload() or {}).get("routines", ())) for _r, o in answered)
        values.update(setup_s=median(setup_times), peak_rss_mb=peak_rss_mb,
                      routines_per_s=routines / sum(o.latency for _r, o in answered))
        lag = [o.lateness * 1000.0 for _r, o in answered]
        notes += [
            note,
            f"generator lateness: p50 {median(lag):.2f} ms, max {max(lag):.2f} ms",
        ]
    check_answers(answered, tally)
    check_oracle(random.Random(seed + 1), tally)
    return values, notes
