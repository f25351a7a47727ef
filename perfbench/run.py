"""End-to-end benchmark of ``repro-bigindex build`` + ``repro-bigindex serve``.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload read-cold --seed 1 --seconds 30 --trace 0

One run:

1. generates its inputs from ``--seed`` (``inputs.py``);
2. sets up: runs ``repro-bigindex build`` on the generated graph,
   starts ``repro-bigindex serve --admin`` on the index and waits for
   the first 200 on ``/healthz``; this server serves the run;
3. warms up, then drives the server from one client over one HTTP
   connection in a closed loop for ``--seconds`` seconds in all, split
   into ``TIMED_CHUNKS`` equal chunks;
4. on read-cold, sends a fixed batch of mutations after each chunk, so
   the write path is measured on every workload;
5. between chunks, while the serving server idles, sets up once more
   (a probe server, stopped again at once), so that the timed samples
   and the set-up samples both span the whole run rather than one
   stretch of it;
6. checks every reply against the benchmark's own mirror of the graph
   (``checker.py``) and the server's end state against the mirror;
7. with ``--trace 1``, scrapes ``/metrics`` and replays the same inputs
   in-process to time single layers (``layers.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Any other
output (the calibration kernel, the input fingerprints) comes before it.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs as gen  # noqa: E402
from checker import Mirror, check_answers  # noqa: E402
from client import Connection, wait_healthy  # noqa: E402

WORKLOADS = ("read-cold", "write-mix")
#: The timed phase is split into this many chunks.  One set-up starts
#: the serving server and one probe set-up follows each chunk but the
#: last; ``setup_s`` is the median of these ``TIMED_CHUNKS`` set-ups.
TIMED_CHUNKS = 4
#: Warm-up before the timed phase (never timed, always checked).
COLD_WARMUP = 30
WRITE_WARMUP_ROUNDS = 1
#: write-mix: distinct reads after each mutation.
READS_PER_MUTATION = 4
#: Mutations sent on read-cold, in equal batches after each chunk.
COLD_MUTATIONS = 20
#: Length of the generated mutation list (far more than a run applies).
MUTATION_LIST = 400
HOST = "127.0.0.1"
#: Whole-run guard: a run must end within 180 s.
RUN_DEADLINE_S = 170.0


def calibration_ms() -> float:
    """A fixed pure-Python kernel, timed: flags a slow host in the log."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path)
        for name in names
    )


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class Op:
    """One attempted operation and its reply."""

    kind: str  # "read" or "mutate"
    payload: Tuple
    timed: bool
    latency: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""


@dataclass
class Setup:
    build_s: float
    boot_s: float

    @property
    def total_s(self) -> float:
        return self.build_s + self.boot_s


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    #: bytes of the index directory it was started on, as built.
    index_bytes: int


@dataclass
class Run:
    root: str
    work: str
    workload: str
    env: Dict[str, str] = field(default_factory=dict)
    setups: List[Setup] = field(default_factory=list)
    #: every server started and not yet stopped.
    live: List[subprocess.Popen] = field(default_factory=list)

    # ------------------------------------------------------------------
    def cli(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "repro.cli", *args]

    def set_up(self, graph_prefix: str, deadline: float) -> Server:
        """Build an index and start a server on it; the caller stops it."""
        attempt = len(self.setups)
        index_dir = os.path.join(self.work, f"index{attempt}")
        started = time.perf_counter()
        build = subprocess.run(
            self.cli(
                "build", graph_prefix, "--index-dir", index_dir,
                "--layers", str(gen.LAYERS), *gen.ONTOLOGY_ARGS,
            ),
            env=self.env, cwd=self.work, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        built = time.perf_counter()
        if build.returncode != 0:
            raise RuntimeError(f"build failed: {build.stderr.strip()}")
        index_bytes = dir_bytes(index_dir)
        port = free_port()
        log = open(os.path.join(self.work, f"serve{attempt}.log"), "wb")
        with log:
            process = subprocess.Popen(
                self.cli(
                    "serve", index_dir, "--host", HOST,
                    "--port", str(port), "--admin", *gen.ONTOLOGY_ARGS,
                ),
                env=self.env, cwd=self.work, stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.live.append(process)
        ready = wait_healthy(HOST, port, deadline, lambda: process.poll() is None)
        if ready is None:
            raise RuntimeError(
                f"server never became healthy (exit {process.poll()})"
            )
        self.setups.append(Setup(built - started, ready - built))
        return Server(process, port, index_bytes)

    def probe(self, graph_prefix: str, deadline: float) -> None:
        """One more set-up, timed and then stopped again."""
        self.stop(self.set_up(graph_prefix, deadline).process)

    def stop(self, process: subprocess.Popen) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.live.remove(process)

    def stop_all(self) -> None:
        for process in list(self.live):
            self.stop(process)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def query_body(keywords) -> bytes:
    return json.dumps({"keywords": list(keywords)}).encode()


def mutate_body(op: str, u: int, v: int) -> bytes:
    return json.dumps({"op": op, "u": u, "v": v}).encode()


def send(conn: Connection, op: Op, body: bytes) -> Op:
    path = "/query" if op.kind == "read" else "/admin/mutate"
    started = time.perf_counter()
    try:
        op.status, reply = conn.request("POST", path, body)
    except (OSError, http.client.HTTPException) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
        reply = b""
    op.latency = time.perf_counter() - started
    op.body = reply
    return op


def drive(
    workload: str, port: int, data: gen.Inputs,
    mutations: List[Tuple[str, int, int]], seconds: float,
    between: Callable[[], None],
) -> Tuple[List[Op], float]:
    """Warm up, then run the workload's timed closed loop in chunks.

    ``between`` runs after every chunk but the last, while the server
    idles.  Returns every operation in order and the chunks' total
    length.
    """
    conn = Connection(HOST, port)
    ops: List[Op] = []

    def read(keywords, timed: bool) -> None:
        ops.append(send(conn, Op("read", keywords, timed), query_body(keywords)))

    def mutate(m: Tuple[str, int, int], timed: bool) -> None:
        ops.append(send(conn, Op("mutate", m, timed), mutate_body(*m)))

    queries = data.cold_queries
    chunk_s = seconds / TIMED_CHUNKS
    elapsed = 0.0
    try:
        if workload == "read-cold":
            for q in queries[:COLD_WARMUP]:
                read(q, False)
            # A program fast enough to use up the distinct queries (the
            # current one uses a third to a half in 30 s) ends the timed phase
            # early rather than repeating one.
            i = COLD_WARMUP
            batch = COLD_MUTATIONS // TIMED_CHUNKS
            for chunk in range(TIMED_CHUNKS):
                start = time.perf_counter()
                while (i < len(queries)
                       and time.perf_counter() - start < chunk_s):
                    read(queries[i], True)
                    i += 1
                elapsed += time.perf_counter() - start
                for m in mutations[chunk * batch:(chunk + 1) * batch]:
                    mutate(m, False)
                if chunk < TIMED_CHUNKS - 1:
                    between()
        else:
            max_rounds = min(
                len(mutations), len(queries) // READS_PER_MUTATION
            )
            rounds = 0

            def round_(timed: bool) -> None:
                nonlocal rounds
                mutate(mutations[rounds], timed)
                first = rounds * READS_PER_MUTATION
                for q in queries[first:first + READS_PER_MUTATION]:
                    read(q, timed)
                rounds += 1

            for _ in range(WRITE_WARMUP_ROUNDS):
                round_(False)
            for chunk in range(TIMED_CHUNKS):
                start = time.perf_counter()
                while (rounds < max_rounds
                       and time.perf_counter() - start < chunk_s):
                    round_(True)
                elapsed += time.perf_counter() - start
                if chunk < TIMED_CHUNKS - 1:
                    between()
    finally:
        conn.close()
    return ops, elapsed


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check_ops(ops: List[Op], mirror: Mirror) -> Tuple[int, List[str]]:
    """Check every reply in order against the mirror.

    Returns the number of failed operations and the descriptions of
    wrong replies (failures that are not transport or status errors).
    """
    failed = 0
    wrong: List[str] = []
    for op in ops:
        if op.error or op.status != 200:
            failed += 1
            continue
        if op.kind == "mutate":
            kind, u, v = op.payload
            reply = json.loads(op.body)
            if (reply.get("applied") is not True or reply.get("op") != kind
                    or (reply.get("u"), reply.get("v")) != (u, v)):
                failed += 1
                wrong.append(f"mutation {op.payload} answered {reply}")
                continue
            if kind == "insert":
                mirror.insert(u, v)
            else:
                mirror.delete(u, v)
            continue
        reply = json.loads(op.body)
        problems = check_answers(
            mirror, op.payload, reply.get("answers", ()), gen.K, gen.D_MAX
        )
        if reply.get("status") != "ok":
            problems.append(f"status {reply.get('status')!r}")
        if problems:
            failed += 1
            wrong.append(f"query {op.payload}: {problems[:3]}")
    return failed, wrong


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    # SIGTERM unwinds through the ``finally`` below, which stops the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a checkout (no src/repro/cli.py)",
              file=sys.stderr)
        return 2
    work = os.path.join(
        root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # A fixed hash seed makes set and dict orders, and with them the
    # program's work, the same in every run of the same inputs.
    env["PYTHONHASHSEED"] = "0"
    run = Run(root=root, work=work, workload=args.workload, env=env)
    try:
        return measure(run, args, deadline)
    finally:
        run.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def measure(run: Run, args, deadline: float) -> int:
    calibration_before = calibration_ms()
    data = gen.generate(args.seed)
    graph_prefix = os.path.join(run.work, "graph", "g")
    gen.write_graph(data, graph_prefix)
    mutation_list = gen.mutations(
        args.seed, len(data.labels), data.edges, MUTATION_LIST
    )
    fingerprints = {
        **data.files,
        "queries": gen.digest_of(data.cold_queries),
        "mutations": gen.digest_of(mutation_list),
    }
    print(
        f"inputs: seed {args.seed}, |V| {len(data.labels)}, "
        f"|E| {len(data.edges)}; sha256 "
        + ", ".join(f"{name} {digest}" for name, digest in fingerprints.items()),
        flush=True,
    )

    server = run.set_up(graph_prefix, deadline)
    ops, elapsed = drive(
        args.workload, server.port, data, mutation_list, args.seconds,
        lambda: run.probe(graph_prefix, deadline),
    )

    conn = Connection(HOST, server.port)
    try:
        health_status, health = conn.get_json("/healthz")
        metrics_status, scraped = conn.get_json("/metrics")
    finally:
        conn.close()
    rss_mib = vm_hwm_mib(server.process.pid)
    run.stop(server.process)

    mirror = Mirror(data.labels, data.edges)
    failed, wrong = check_ops(ops, mirror)
    end_state: List[str] = []
    if health_status != 200 or health["layer_sizes"][0] != mirror.size:
        end_state.append(
            f"/healthz layer_sizes[0] {health.get('layer_sizes')} != mirror "
            f"|V|+|E| {mirror.size}"
        )
    counters = scraped.get("counters", {}) if metrics_status == 200 else {}
    hits = counters.get("cache.hit.result", 0)
    timed_reads = [op for op in ops if op.timed and op.kind == "read"]
    if args.workload == "read-cold" and hits != 0:
        end_state.append(f"read-cold saw {hits} result-cache hit(s)")
    for line in (wrong + end_state)[:10]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    read_ms = [op.latency * 1000.0 for op in timed_reads]
    mutate_ms = [
        op.latency * 1000.0 for op in ops if op.kind == "mutate"
        and (op.timed or args.workload == "read-cold")
    ]
    timed_ops = sum(1 for op in ops if op.timed)
    calibration_after = calibration_ms()
    print(
        f"calibration kernel: {calibration_before:.1f} ms before, "
        f"{calibration_after:.1f} ms after; {len(read_ms)} timed read(s), "
        f"{len(mutate_ms)} mutation(s) in {elapsed:.2f} s; set-ups "
        + ", ".join(f"{s.build_s:.3f}+{s.boot_s:.3f} s" for s in run.setups),
        flush=True,
    )

    if args.trace:
        import layers

        metrics = layers.per_layer(run, data, ops, counters, args.workload)
    else:
        metrics = {
            "setup_s": (statistics.median(s.total_s for s in run.setups), "s"),
            "query_p50_ms": (percentile(read_ms, 50), "ms"),
            "query_p90_ms": (percentile(read_ms, 90), "ms"),
            "ops_per_s": (timed_ops / elapsed, "1/s"),
            "mutate_p50_ms": (percentile(mutate_ms, 50), "ms"),
            "mutate_p90_ms": (percentile(mutate_ms, 90), "ms"),
            "server_rss_mib": (rss_mib, "MiB"),
            "index_mib": (server.index_bytes / 2**20, "MiB"),
        }
    result = {
        "correct": not wrong and not end_state,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
