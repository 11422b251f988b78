#!/usr/bin/env python3
"""Load generator for quest_serve's TCP transport.

Spawns the binary with `--tcp-port 0`, reads the `{"event":"listening",
"port":N}` line it prints on stdout, then fans out N concurrent socket
connections each issuing R optimize requests (cache off, varied seeds)
and measures per-request latency end to end. Reports throughput and
latency percentiles as JSON on stdout:

  {"connections":256,"requests_per_connection":8,"total_requests":2048,
   "req_per_s":...,"p50_ms":...,"p99_ms":...,"errors":0,"overloaded":0}

With --smoke it additionally asserts protocol invariants (every request
gets exactly one result, results are well-formed, no connection dies)
and runs a dedicated load-shed phase against a second server instance
started with --workers 1 --queue-cap 1, asserting that typed
`overloaded` errors are emitted and that the server survives. Exits
non-zero with a readable reason on any violation.

Two exclusive modes replace the throughput run when selected:

  --persist      durability smoke: start quest_serve with a snapshot
                 path, optimize with the cache on, wait for the write-
                 behind snapshot to land on disk, kill -9 the process,
                 restart it on the same path, and assert the warm boot
                 restores the instance and serves every repeated request
                 from the exact cache tier at the identical cost.
  --router K     sharded smoke: K quest_serve backends behind
                 quest_router (--router-binary). Registers instances
                 with distinct fingerprints through the router, checks
                 merged stats report the fleet shape (replicas: 1),
                 observe/refit reach the owner, an unregistered name is
                 a typed `unknown-instance` error, then kill -9s one
                 backend and asserts its shard sheds with typed
                 `overloaded` errors while the survivors keep serving.
  --replicas R   (with --router K, R > 1) replication smoke: the router
                 runs with --replicas R and a registration journal.
                 kill -9 one backend under concurrent optimize load and
                 assert ZERO client-visible errors (every key has a live
                 replica; failovers are counted in merged stats), then
                 restart the backend on its old port and poll stats
                 until the prober revives it and journal replay heals it
                 (repairs > 0). Ends with a clean fleet shutdown.

Usage:
  loadgen.py --binary build/tools/quest_serve --connections 256 --requests 8
  loadgen.py --binary ... --connections 16 --requests 4 --smoke   # ctest
  loadgen.py --binary ... --persist --smoke                       # ctest
  loadgen.py --binary ... --router-binary build/tools/quest_router \\
             --router 2 --smoke                                   # ctest
  loadgen.py --binary ... --router-binary ... --router 3 \\
             --replicas 2 --smoke                                 # ctest

Used by ctest (serve/tcp_smoke, serve/persist_smoke, serve/router_smoke,
serve/replication_smoke) and the CI smoke job; BENCH_7.json is a
recorded run of the 256-connection profile.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

LONG_JOB_SPEC = "annealing:iterations=2000000000"


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def make_instance(n=8):
    """Deterministic instance, same shape as quest_serve_smoke.py."""
    services = [
        {
            "name": f"WS{i}",
            "cost": 0.5 + 0.13 * ((i * 7) % 5),
            "selectivity": 0.35 + 0.06 * ((i * 3) % 7),
        }
        for i in range(n)
    ]
    transfer = [
        [0.0 if i == j else 0.2 + 0.01 * ((3 * i + 5 * j) % 17) for j in range(n)]
        for i in range(n)
    ]
    return {"name": "loadgen", "services": services, "transfer": transfer}


class Server:
    """A quest_serve process in TCP mode; context-manages its lifetime."""

    def __init__(self, binary, extra_flags=(), port=0):
        self.proc = subprocess.Popen(
            [binary, "--tcp-port", str(port), *extra_flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        line = self.proc.stdout.readline()
        try:
            event = json.loads(line)
            assert event["event"] == "listening"
            self.port = int(event["port"])
        except Exception:
            self.proc.kill()
            fail(f"no listening line from server, got {line!r}")

    def shutdown(self, timeout=30.0):
        """Ask one connection to issue shutdown; expect clean exit 0."""
        try:
            with Client(self.port) as client:
                client.send({"op": "shutdown"})
        except OSError:
            pass  # already gone — the exit code below is the real check
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("server did not exit after shutdown op")
        if code != 0:
            sys.stderr.write(self.proc.stderr.read() or "")
            fail(f"server exited with code {code}")

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Client:
    """One blocking line-delimited JSON connection."""

    def __init__(self, port, timeout=60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.settimeout(timeout)
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, op):
        self.sock.sendall((json.dumps(op) + "\n").encode())

    def read_event(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise EOFError("connection closed by server")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def wait_for(self, predicate, what):
        while True:
            event = self.read_event()
            if predicate(event):
                return event

    def wait_result(self, request_id):
        return self.wait_for(
            lambda e: e.get("event") == "result" and e.get("id") == request_id,
            f"result of {request_id}",
        )


def run_connection(port, connection, requests, instance_name, results, errors):
    """One client: register once via name, then R optimize round-trips."""
    latencies = []
    try:
        with Client(port) as client:
            for r in range(requests):
                request_id = f"c{connection}/{r}"
                started = time.monotonic()
                client.send(
                    {
                        "op": "optimize",
                        "id": request_id,
                        "instance": instance_name,
                        "optimizer": "bnb",
                        "budget": {"deadline_ms": 30000},
                        "seed": connection * 1009 + r,
                        "cache": False,
                    }
                )
                result = client.wait_result(request_id)
                latencies.append(time.monotonic() - started)
                if not result.get("complete") or "cost" not in result:
                    errors.append(f"{request_id}: malformed result {result}")
                    return
    except (OSError, EOFError, ValueError) as exc:
        errors.append(f"connection {connection}: {exc!r}")
        return
    results[connection] = latencies


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def throughput_phase(args):
    server = Server(
        args.binary,
        (
            "--max-connections", str(max(args.connections + 8, 64)),
            "--queue-cap", str(max(4 * args.connections, 1024)),
        ),
    )
    with Client(server.port) as registrar:
        registrar.send(
            {"op": "register", "name": "load", "instance": make_instance()}
        )
        registered = registrar.wait_for(
            lambda e: e.get("event") == "registered", "registered"
        )
        assert registered.get("services") == 8, registered

    results = {}
    errors = []
    threads = [
        threading.Thread(
            target=run_connection,
            args=(server.port, c, args.requests, "load", results, errors),
        )
        for c in range(args.connections)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started

    server.shutdown()

    if args.smoke and errors:
        fail("; ".join(errors[:5]))
    latencies = sorted(l for ls in results.values() for l in ls)
    total = args.connections * args.requests
    if args.smoke and len(latencies) != total:
        fail(f"expected {total} results, got {len(latencies)}")
    return {
        "connections": args.connections,
        "requests_per_connection": args.requests,
        "total_requests": total,
        "completed": len(latencies),
        "elapsed_s": round(elapsed, 3),
        "req_per_s": round(len(latencies) / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "errors": len(errors),
    }


def shed_phase(binary):
    """--workers 1 --queue-cap 1: a hog + one queued job force the third
    concurrent request to shed with a typed `overloaded` error."""
    server = Server(binary, ("--workers", "1", "--queue-cap", "1"))
    with Client(server.port) as client:
        client.send(
            {"op": "register", "name": "shed", "instance": make_instance()}
        )
        client.wait_for(lambda e: e.get("event") == "registered", "registered")
        # Occupy the single worker; the incumbent proves it is running.
        client.send(
            {
                "op": "optimize",
                "id": "hog",
                "instance": "shed",
                "optimizer": LONG_JOB_SPEC,
                "budget": {"deadline_ms": 60000},
                "stream": True,
                "cache": False,
            }
        )
        client.wait_for(
            lambda e: e.get("event") == "incumbent" and e.get("id") == "hog",
            "hog incumbent",
        )
        # Fill the queue slot.
        client.send(
            {
                "op": "optimize",
                "id": "queued",
                "instance": "shed",
                "optimizer": LONG_JOB_SPEC,
                "budget": {"deadline_ms": 60000},
                "cache": False,
            }
        )
        client.wait_for(
            lambda e: e.get("event") == "admitted" and e.get("id") == "queued",
            "queued admitted",
        )
        # Overflow: must shed with the typed error, not hang or crash.
        client.send(
            {
                "op": "optimize",
                "id": "extra",
                "instance": "shed",
                "optimizer": LONG_JOB_SPEC,
                "budget": {"deadline_ms": 60000},
                "cache": False,
            }
        )
        shed = client.wait_for(
            lambda e: e.get("event") == "error" and e.get("id") == "extra",
            "shed error",
        )
        if shed.get("code") != "overloaded":
            fail(f"expected code=overloaded, got {shed}")
        if shed.get("queue_cap") != 1:
            fail(f"expected queue_cap=1 in shed event, got {shed}")
        # The session survives shedding: cancel both and collect results.
        for request_id in ("hog", "queued"):
            client.send({"op": "cancel", "id": request_id})
            result = client.wait_result(request_id)
            if result.get("termination") != "cancelled":
                fail(f"expected {request_id} cancelled, got {result}")
        client.send({"op": "stats"})
        stats = client.wait_for(lambda e: e.get("event") == "stats", "stats")
        if stats.get("shed") != 1 or stats.get("queue_cap") != 1:
            fail(f"stats disagree with the shed: {stats}")
    server.shutdown()
    return {"shed_errors": 1, "queue_cap": 1}


def wait_for_snapshot(path, min_exact, deadline_s=60.0):
    """Block until the snapshot on disk holds >= min_exact exact-tier
    records (and at least one instance), so a kill -9 afterwards cannot
    outrun the write-behind flush. Returns the record census."""
    deadline = time.monotonic() + deadline_s
    census = {}
    while time.monotonic() < deadline:
        census = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    kind = record.get("type", "header")
                    census[kind] = census.get(kind, 0) + 1
        except (OSError, ValueError):
            census = {}  # mid-rename or mid-line; retry
        if census.get("exact", 0) >= min_exact and census.get("instance", 0) >= 1:
            return census
        time.sleep(0.05)
    fail(f"snapshot at {path} never reached {min_exact} exact records: {census}")


def persist_phase(args):
    """Kill -9 a loaded server; a restart on the same --snapshot-path must
    warm-boot the instance store and serve repeats from the exact tier."""
    tmpdir = tempfile.mkdtemp(prefix="quest_persist_smoke_")
    snapshot = os.path.join(tmpdir, "state.qsnap")
    flags = ("--snapshot-path", snapshot, "--snapshot-interval-ms", "50")
    repeats = 4

    server = Server(args.binary, flags)
    costs = {}
    with Client(server.port) as client:
        client.send(
            {"op": "register", "name": "persist", "instance": make_instance()}
        )
        client.wait_for(lambda e: e.get("event") == "registered", "registered")
        for r in range(repeats):
            request_id = f"persist/{r}"
            client.send(
                {
                    "op": "optimize",
                    "id": request_id,
                    "instance": "persist",
                    "optimizer": "bnb",
                    "budget": {"deadline_ms": 30000},
                    "seed": r,
                    "cache": True,
                }
            )
            result = client.wait_result(request_id)
            if not result.get("complete") or result.get("cached"):
                fail(f"{request_id}: expected a fresh complete result, got {result}")
            costs[r] = result["cost"]
        census = wait_for_snapshot(snapshot, min_exact=repeats)
        # The file census and the stats counter are updated on different
        # sides of the snapshot write (rename vs. post-write accounting),
        # so poll the stats event instead of racing a one-shot check.
        deadline = time.monotonic() + 30.0
        while True:
            client.send({"op": "stats"})
            stats = client.wait_for(lambda e: e.get("event") == "stats", "stats")
            if stats.get("snapshot_writes", 0) >= 1:
                break
            if time.monotonic() >= deadline:
                fail(
                    "stats never reported a snapshot write despite "
                    f"on-disk state: {stats}"
                )
            time.sleep(0.05)
    server.kill()  # kill -9: no drain, no final flush

    server = Server(args.binary, flags)
    try:
        with Client(server.port) as client:
            client.send({"op": "stats"})
            stats = client.wait_for(lambda e: e.get("event") == "stats", "stats")
            warm = stats.get("warm_boot_entries", 0)
            if warm < repeats + 1:  # instance + exact entries at minimum
                fail(f"warm boot restored too little: {stats}")
            if stats.get("stale_refused", 0) != 0:
                fail(f"clean snapshot had refused records: {stats}")
            # The instance survives by name — no re-register — and every
            # repeated request is an exact-tier hit at the identical cost.
            for r in range(repeats):
                request_id = f"warm/{r}"
                client.send(
                    {
                        "op": "optimize",
                        "id": request_id,
                        "instance": "persist",
                        "optimizer": "bnb",
                        "budget": {"deadline_ms": 30000},
                        "seed": r,
                        "cache": True,
                    }
                )
                result = client.wait_result(request_id)
                if not result.get("cached"):
                    fail(f"{request_id}: expected an exact-tier hit, got {result}")
                if result["cost"] != costs[r]:
                    fail(
                        f"{request_id}: cost drifted across restart "
                        f"({result['cost']!r} != {costs[r]!r})"
                    )
        server.shutdown()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "mode": "persist",
        "snapshot_records": census,
        "warm_boot_entries": int(warm),
        "exact_hits_after_restart": repeats,
    }


def router_phase(args):
    """K backends behind quest_router: fan registrations across shards,
    merge stats, then kill -9 one backend and assert typed shedding."""
    shards = args.router
    backends = [Server(args.binary) for _ in range(shards)]
    router = Server(
        args.router_binary,
        ("--backends", ",".join(f"127.0.0.1:{b.port}" for b in backends)),
    )

    def spread_instance(i):
        # Same shape, perturbed first-service cost: distinct fingerprints
        # so consistent hashing actually spreads the keys.
        instance = make_instance(6)
        instance["services"][0]["cost"] += 0.001 * (i + 1)
        return instance

    names = [f"spread{i}" for i in range(12)]
    with Client(router.port) as client:
        for i, name in enumerate(names):
            client.send(
                {"op": "register", "name": name, "instance": spread_instance(i)}
            )
            client.wait_for(
                lambda e: e.get("event") == "registered", "registered"
            )
        for name in names:
            request_id = f"route/{name}"
            client.send(
                {
                    "op": "optimize",
                    "id": request_id,
                    "instance": name,
                    "optimizer": "bnb",
                    "budget": {"deadline_ms": 30000},
                    "cache": True,
                }
            )
            result = client.wait_result(request_id)
            if not result.get("complete"):
                fail(f"{request_id}: incomplete result through router: {result}")
        client.send({"op": "stats"})
        stats = client.wait_for(lambda e: e.get("event") == "stats", "stats")
        if stats.get("shards") != shards or stats.get("shards_live") != shards:
            fail(f"merged stats disagree with the fleet: {stats}")
        if stats.get("admitted", 0) < len(names):
            fail(f"merged admitted counter lost requests: {stats}")
        if stats.get("replicas") != 1:
            fail(f"merged stats should report replicas: 1: {stats}")

        # observe and refit route to the owning shard like any other op.
        tuples = [1000, 600, 360, 216, 130, 78, 47]
        client.send(
            {
                "op": "observe",
                "instance": names[0],
                "plan": list(range(6)),
                "tuples_in": tuples[:-1],
                "tuples_out": tuples[1:],
            }
        )
        event = client.wait_for(
            lambda e: e.get("event") in ("observed", "error"), "observed"
        )
        if event["event"] != "observed":
            fail(f"observe through the router failed: {event}")
        client.send({"op": "refit", "instance": names[0]})
        event = client.wait_for(
            lambda e: e.get("event") in ("refit", "error"), "refit"
        )
        if event["event"] != "refit":
            fail(f"refit through the router failed: {event}")

        # A name never registered gets the backend's typed error code.
        client.send(
            {
                "op": "optimize",
                "id": "unregistered",
                "instance": "never-registered",
                "optimizer": "bnb",
            }
        )
        event = client.wait_for(
            lambda e: e.get("id") == "unregistered"
            and e.get("event") in ("result", "error"),
            "outcome of unregistered",
        )
        if event.get("code") != "unknown-instance":
            fail(f"unregistered name should be unknown-instance: {event}")

    backends[0].kill()  # kill -9 one shard

    survived = shed = 0
    with Client(router.port) as client:
        for name in names:
            request_id = f"after/{name}"
            client.send(
                {
                    "op": "optimize",
                    "id": request_id,
                    "instance": name,
                    "optimizer": "bnb",
                    "budget": {"deadline_ms": 30000},
                    "cache": True,
                }
            )
            event = client.wait_for(
                lambda e: e.get("id") == request_id
                and e.get("event") in ("result", "error"),
                f"outcome of {request_id}",
            )
            if event["event"] == "result":
                survived += 1
            else:
                if event.get("code") != "overloaded":
                    fail(f"{request_id}: untyped shed error: {event}")
                shed += 1
        if shed < 1 or survived < 1:
            fail(
                f"expected a mix of survivals and sheds with one dead shard, "
                f"got survived={survived} shed={shed}"
            )
        client.send({"op": "stats"})
        stats = client.wait_for(lambda e: e.get("event") == "stats", "stats")
        if stats.get("shards_live") != shards - 1:
            fail(f"merged stats missed the dead shard: {stats}")

    router.shutdown()
    for backend in backends[1:]:
        try:
            code = backend.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            backend.kill()
            fail("backend did not exit after fleet shutdown")
        if code != 0:
            fail(f"backend exited with code {code} after fleet shutdown")
    return {
        "mode": "router",
        "shards": shards,
        "routed": len(names),
        "survived_after_kill": survived,
        "shed_after_kill": shed,
    }


def optimize_outcome(client, request_id, name, admitted=None):
    """Sends one optimize and returns its terminal event (result|error).
    Failovers are invisible here by design: the router forwards one
    `admitted` per id. With an `admitted` dict, counts the `admitted`
    events each id gets."""
    client.send(
        {
            "op": "optimize",
            "id": request_id,
            "instance": name,
            "optimizer": "bnb",
            "budget": {"deadline_ms": 30000},
            "cache": True,
        }
    )

    def terminal(event):
        if event.get("id") != request_id:
            return False
        if event.get("event") == "admitted" and admitted is not None:
            admitted[request_id] = admitted.get(request_id, 0) + 1
        return event.get("event") in ("result", "error")

    return client.wait_for(terminal, f"outcome of {request_id}")


def replicated_load(port, names, stop, errors, completed, admitted):
    """Background load: optimize round-robin over `names` until told to
    stop, recording any client-visible error and counting `admitted`
    events per id. With --replicas 2 and one dead backend, the error
    list must stay empty."""
    try:
        with Client(port) as client:
            r = 0
            while not stop.is_set():
                event = optimize_outcome(
                    client, f"load/{r}", names[r % len(names)], admitted
                )
                if event["event"] == "error":
                    errors.append(f"load/{r}: client-visible error {event}")
                    return
                completed.append(r)
                r += 1
    except (OSError, EOFError, ValueError) as exc:
        errors.append(f"load connection: {exc!r}")


def fetch_stats(port):
    with Client(port) as client:
        client.send({"op": "stats"})
        return client.wait_for(lambda e: e.get("event") == "stats", "stats")


def replication_phase(args):
    """K backends, --replicas R: kill -9 one backend under load (zero
    client-visible errors, failovers counted), restart it on the same
    port, and assert the journal replay heals it (repairs > 0)."""
    shards = args.router
    replicas = args.replicas
    tmpdir = tempfile.mkdtemp(prefix="quest_replication_smoke_")
    journal = os.path.join(tmpdir, "journal.jsonl")
    try:
        backends = [Server(args.binary) for _ in range(shards)]
        ports = [b.port for b in backends]
        router = Server(
            args.router_binary,
            (
                "--backends", ",".join(f"127.0.0.1:{p}" for p in ports),
                "--replicas", str(replicas),
                "--journal", journal,
                "--probe-interval-ms", "50",
            ),
        )

        def spread_instance(i):
            instance = make_instance(6)
            instance["services"][0]["cost"] += 0.001 * (i + 1)
            return instance

        names = [f"spread{i}" for i in range(12)]
        with Client(router.port) as client:
            for i, name in enumerate(names):
                client.send(
                    {"op": "register", "name": name,
                     "instance": spread_instance(i)}
                )
                client.wait_for(
                    lambda e: e.get("event") == "registered", "registered"
                )
            for name in names:
                event = optimize_outcome(client, f"route/{name}", name)
                if event["event"] != "result" or not event.get("complete"):
                    fail(f"route/{name}: bad result through router: {event}")

        stats = fetch_stats(router.port)
        if stats.get("shards") != shards or stats.get("shards_live") != shards:
            fail(f"merged stats disagree with the healthy fleet: {stats}")
        if stats.get("replicas") != replicas:
            fail(f"replicated stats must carry the factor: {stats}")
        if stats.get("shards_degraded", -1) != 0:
            fail(f"healthy fleet reported degraded shards: {stats}")

        # kill -9 one backend under concurrent load: every key has R
        # distinct owners, so the router must absorb the loss without a
        # single client-visible error.
        victim = 0
        stop = threading.Event()
        errors = []
        completed = []
        admitted = {}
        load = threading.Thread(
            target=replicated_load,
            args=(router.port, names, stop, errors, completed, admitted),
        )
        load.start()
        time.sleep(0.4)  # let the load reach steady state
        backends[victim].kill()
        time.sleep(1.5)  # keep hammering through the failure window
        stop.set()
        load.join(timeout=60)
        if load.is_alive():
            fail("load thread hung after the kill")
        if errors:
            fail("; ".join(errors[:5]))
        if len(completed) < len(names):
            fail(f"load barely ran: {len(completed)} requests completed")
        # A failover re-admits the request on the next owner; the router
        # must still show each id one `admitted`.
        doubled = sorted(i for i, count in admitted.items() if count > 1)
        if doubled:
            fail(f"ids admitted twice across the kill: {doubled[:5]}")

        # One deliberate pass over every key with the shard still dead:
        # guarantees at least one request had the victim as its primary.
        with Client(router.port) as client:
            for name in names:
                event = optimize_outcome(client, f"degraded/{name}", name)
                if event["event"] != "result":
                    fail(f"degraded/{name}: error with a live replica: {event}")

        degraded = fetch_stats(router.port)
        if degraded.get("shards_live") != shards - 1:
            fail(f"merged stats missed the dead shard: {degraded}")
        if degraded.get("shards_degraded", 0) < 1:
            fail(f"prober never reported the dead shard: {degraded}")
        if degraded.get("replica_failovers", 0) < 1:
            fail(f"no failovers counted with a dead primary: {degraded}")

        # Rejoin: restart the backend on its old port (empty state). The
        # prober revives it and the router replays its share of the
        # journal ahead of traffic — visible as repairs > 0.
        backends[victim] = Server(args.binary, port=ports[victim])
        deadline = time.monotonic() + 60.0
        healed = {}
        while time.monotonic() < deadline:
            healed = fetch_stats(router.port)
            if (
                healed.get("shards_live") == shards
                and healed.get("repairs", 0) >= 1
            ):
                break
            time.sleep(0.1)
        else:
            fail(f"fleet never healed after the rejoin: {healed}")

        with Client(router.port) as client:
            for name in names:
                event = optimize_outcome(client, f"healed/{name}", name)
                if event["event"] != "result":
                    fail(f"healed/{name}: error after heal: {event}")

        final = fetch_stats(router.port)
        router.shutdown()
        for backend in backends:
            try:
                code = backend.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                backend.kill()
                fail("backend did not exit after fleet shutdown")
            if code != 0:
                fail(f"backend exited with code {code} after fleet shutdown")
        return {
            "mode": "replication",
            "shards": shards,
            "replicas": replicas,
            "routed": len(names),
            "load_requests_during_kill": len(completed),
            "client_visible_errors": len(errors),
            "replica_failovers": int(final.get("replica_failovers", 0)),
            "repairs": int(final.get("repairs", 0)),
            "merged_stats": final,
        }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True, help="quest_serve path")
    parser.add_argument("--connections", type=int, default=256)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert protocol invariants and run the load-shed phase",
    )
    parser.add_argument(
        "--persist",
        action="store_true",
        help="run the kill -9 / warm-boot durability smoke instead",
    )
    parser.add_argument(
        "--router",
        type=int,
        default=0,
        metavar="K",
        help="run the K-shard router smoke instead (needs --router-binary)",
    )
    parser.add_argument("--router-binary", help="quest_router path")
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="with --router K and R > 1: run the replication smoke "
        "(kill/rejoin with journal-backed repair) instead",
    )
    args = parser.parse_args()

    if args.persist:
        report = persist_phase(args)
    elif args.router:
        if not args.router_binary:
            fail("--router requires --router-binary")
        if args.router < 1:
            fail("--router needs at least one shard")
        if args.replicas > args.router:
            fail("--replicas cannot exceed --router")
        if args.replicas > 1:
            report = replication_phase(args)
        else:
            report = router_phase(args)
    else:
        report = throughput_phase(args)
        if args.smoke:
            report["shed"] = shed_phase(args.binary)
    if args.smoke:
        report["smoke"] = "pass"
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
