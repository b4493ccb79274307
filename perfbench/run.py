#!/usr/bin/env python3
"""The repository benchmark: host time of the d-HetPNoC reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `repro` (and, for traced runs, the
per-layer probe in perfbench/layers) into $CARGO_TARGET_DIR (default
`.bench_build`), generates the workload's scenario documents from the seed,
sets the workload up at least three times (the median is `setup_s`), then
measures rounds of the workload for `--seconds` seconds against the real
`repro` binary, checking every output. The last stdout line is one JSON object:
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). Host facts and sample
counts are printed on the line before it and saved under `.perfbench_out/`.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("matrix-cold", "matrix-warm", "serve")

# Seed 0 reproduces the program's own default quick matrix (its scenario
# seed is the program default), so its outputs can be compared against
# digests recorded from this benchmark's first commit.
DEFAULT_SEED = 0
PROGRAM_SCENARIO_SEED = 538202316

# The default quick matrix, in the order `repro --quick --dump-scenarios`
# writes it.
ARCHS = ("d-hetpnoc", "firefly", "hier", "uniform-fabric")
TRAFFICS = ("tornado", "bursty-uniform")
SETS = ("set1", "set2", "set3")
# The quick ladder of each bandwidth set is unit × (1, 2, 3); the values are
# exact binary fractions, so they survive the JSON round trip bit for bit.
LOAD_UNIT = {"set1": 0.001220703125, "set2": 0.0048828125, "set3": 0.009765625}
# The collectives the traced run's layer probe drains (`pnoc-workload`).
COLLECTIVES = (
    ("d-hetpnoc", {}, "allreduce:64"),
    ("d-hetpnoc", {}, "shuffle:16"),
    ("d-hetpnoc", {}, "parameter-server:8"),
    ("hier", {"leaf": "d-hetpnoc", "pods": "4"}, "allreduce:64"),
)

# Set-ups per run: at least SETUPS and at least SETUP_SECONDS of them (a
# cheap set-up is repeated more, so its median is not one process start).
SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 30
# Closed-loop serve clients: 2, but never more than the host's cores.
CLIENTS = min(2, len(os.sched_getaffinity(0)))
TRACED_ROUNDS = 6 // CLIENTS  # serve rounds in a traced run: 144 samples a class
REPLAY_PAIRS = 4  # untraced and traced in-process replays in a traced run

LAYERS = ("pnoc-exec", "pnoc-sim", "pnoc-hier", "pnoc-workload", "pnoc-store",
          "pnoc-bench", "perfbench")


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


class Failures:
    """Counts attempted operations and failed ones (bad output, error
    status, refused connection, non-drained collective)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def check(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                log("check failed:", what)
        return ok


# ---------------------------------------------------------------- build --

def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        log("build failed:", " ".join(args))
        sys.exit(2)


def build(trace):
    cargo(["-p", "pnoc-bench", "--bin", "repro"])
    if trace:
        cargo(["--manifest-path", os.path.join(BENCH, "layers", "Cargo.toml")])
    return (os.path.join(target_dir(), "release", "repro"),
            os.path.join(target_dir(), "release", "perfbench-layers"))


def host_facts():
    def text(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    sources = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        path = os.path.join(ROOT, base)
        walk = [(path, [], [""])] if os.path.isfile(path) else os.walk(path)
        for directory, dirs, files in walk:
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(directory, name) if name else directory
                sources.update(os.path.relpath(full, ROOT).encode())
                with open(full, "rb") as handle:
                    sources.update(handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": text(["rustc", "-V"]),
        "commit": text(["git", "rev-parse", "HEAD"]),
        "source_sha256": sources.hexdigest()[:16],
        "build": "release",
        "serve_clients": CLIENTS,
    }


# ------------------------------------------------------------ documents --

def scenario_seed(seed):
    if seed == DEFAULT_SEED:
        return PROGRAM_SCENARIO_SEED
    return random.Random(f"scenario-seed/{seed}").getrandbits(63)


def spec(arch, traffic, bandwidth_set, seed, ladder=(), params=None, workload=None):
    return {"architecture": arch, "arch_params": dict(params or {}),
            "traffic": traffic, "bandwidth_set": bandwidth_set,
            "effort": "quick", "seed": str(seed), "ladder": list(ladder),
            "workload": workload, "faults": None}


def document(specs):
    return json.dumps({"format": "d-hetpnoc-scenarios/v1", "scenarios": specs})


def matrix_specs(seed):
    base = scenario_seed(seed)
    return [spec(a, t, s, base) for a in ARCHS for t in TRAFFICS for s in SETS]


def collective_specs(seed):
    base = scenario_seed(seed)
    return [spec(a, "", "set1", base, params=p, workload=w) for a, p, w in COLLECTIVES]


def matrix_cells():
    return [(a, t, s, i) for a in ARCHS for t in TRAFFICS for s in SETS for i in range(3)]


def point_spec(cell, seed):
    arch, traffic, bandwidth_set, index = cell
    return spec(arch, traffic, bandwidth_set, seed,
                ladder=[LOAD_UNIT[bandwidth_set] * (index + 1)])


class ServePlan:
    """The seeded request mix: hits and revalidations of a pre-filled pool
    of one-point scenarios, and misses whose seeds are never stored. The
    seed sets the scenario seeds and the request order, not the mix.

    The 1:1:1 mix of hits, misses and revalidations is an assumption: no
    measured usage of the server sets it. Every run records each class's
    share of the request time (`class_shares`), which says what serve's
    end-to-end metrics weigh."""

    def __init__(self, seed):
        base = scenario_seed(seed)
        # One pre-filled point per (architecture, traffic, set), its load
        # rotated so that every load appears equally often.
        self.hits = [point_spec((a, t, s, (ai + ti + si) % 3), base)
                     for ai, a in enumerate(ARCHS) for ti, t in enumerate(TRAFFICS)
                     for si, s in enumerate(SETS)]
        self.per_arch = len(self.hits) // len(ARCHS)
        self.used_seeds = {base}

    def fresh_seed(self, rng):
        seed = rng.getrandbits(63)
        while seed in self.used_seeds:
            seed = rng.getrandbits(63)
        self.used_seeds.add(seed)
        return seed

    def block(self, rng):
        """One client block of 72 requests, shuffled; every block holds the
        same work whatever the seed. Each architecture's 6 pre-filled points
        are hit and revalidated once each, and each (architecture, traffic)
        pair misses once at every bandwidth set, each at another load."""
        requests = []
        for ai, arch in enumerate(ARCHS):
            for pool in range(ai * self.per_arch, (ai + 1) * self.per_arch):
                requests.append(("hit", pool, None))
                requests.append(("304", pool, None))
            for ti, traffic in enumerate(TRAFFICS):
                for si, bandwidth_set in enumerate(SETS):
                    cell = (arch, traffic, bandwidth_set, (si + ai + ti) % 3)
                    requests.append(("miss", None, point_spec(cell, self.fresh_seed(rng))))
        rng.shuffle(requests)
        return requests


def scenarios_digest(batch_json_text):
    """Digest of the simulated content of a batch JSON document (not its
    `generated_by` banner)."""
    scenarios = json.loads(batch_json_text)["scenarios"]
    return hashlib.sha256(json.dumps(scenarios, sort_keys=True).encode()).hexdigest()


def expected_digests():
    with open(os.path.join(BENCH, "digests.json")) as handle:
        return json.load(handle)


# -------------------------------------------------------------- program --

class Program:
    """Runs the `repro` binary and keeps the peak RSS of every run."""

    def __init__(self, path, work):
        self.path = path
        self.work = work
        self.peak_kb = 0

    def run(self, args, failures, what):
        """Runs one batch invocation to completion; returns its wall time."""
        with open(os.path.join(self.work, "repro.stderr"), "w") as err:
            started = time.perf_counter()
            child = subprocess.Popen([self.path] + args, cwd=self.work,
                                     stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if not failures.check(child.returncode == 0, f"{what} exited {child.returncode}"):
            with open(os.path.join(self.work, "repro.stderr")) as err:
                sys.stderr.write(err.read()[-2000:])
        return elapsed


def read_text(path):
    with open(path) as handle:
        return handle.read()


def write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)


# ------------------------------------------------------- batch workloads --

class BatchWorkload:
    """matrix-cold and matrix-warm: each round is one `repro` batch
    invocation over the quick matrix's scenario document."""

    def __init__(self, name, seed, program, work, failures):
        self.name = name
        self.seed = seed
        self.program = program
        self.work = work
        self.failures = failures
        specs = matrix_specs(seed)
        self.doc = os.path.join(work, "scenarios.json")
        self.points = len(specs) * 3
        self.reference = None  # batch JSON text every round must reproduce
        self.cache = None
        self.rounds = 0
        write_text(self.doc, document(specs))

    def args(self, out, cache):
        return ["--quick", "--from-scenarios", self.doc, "--batch-json", out,
                "--cache-dir", cache]

    def setup(self, index):
        """One reference round, whose output every measured round must
        reproduce. For matrix-warm it is the cold run that fills the cache
        the rounds read; matrix-cold gives it an empty cache of its own."""
        cache = os.path.join(self.work, f"cache-setup{index}")
        out = os.path.join(self.work, "reference.json")
        self.program.run(self.args(out, cache), self.failures, "reference round")
        self.check_output(read_text(out), "reference round")
        if self.name == "matrix-warm":
            if self.cache:
                shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = cache
        else:
            shutil.rmtree(cache, ignore_errors=True)

    def round(self):
        self.rounds += 1
        out = os.path.join(self.work, "round.json")
        cache = self.cache
        if self.name == "matrix-cold":
            cache = os.path.join(self.work, f"cache-cold{self.rounds}")
        elapsed = self.program.run(self.args(out, cache), self.failures, f"round {self.rounds}")
        self.check_output(read_text(out), f"round {self.rounds}")
        if self.name == "matrix-cold":
            shutil.rmtree(cache, ignore_errors=True)
        return elapsed, self.points

    def check_output(self, text, what):
        if self.reference is None:
            self.reference = text
            if self.seed == DEFAULT_SEED:
                got = scenarios_digest(text)
                want = expected_digests()["matrix"]
                self.failures.check(got == want,
                                    f"{what}: matrix digest {got} != recorded {want}")
        else:
            self.failures.check(text == self.reference,
                                f"{what}: output bytes differ from the first run's")

    def replay_inputs(self):
        """The traced run's in-process replay of one round: its scenario
        document and the store every replay pass starts from (none: an
        empty one)."""
        return self.doc, self.cache

    def check_replay(self, text):
        self.failures.check(text == self.reference,
                            "traced replay bytes equal the program's")

    def stop(self):
        pass


# -------------------------------------------------------- serve workload --

def http(port, method, path, body=b"", headers=()):
    """One request on a fresh connection (the server closes after each
    response). Returns status, headers, body, time to first byte, total."""
    head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1",
            f"Content-Length: {len(body)}", "Connection: close"]
    head += [f"{name}: {value}" for name, value in headers]
    request = ("\r\n".join(head) + "\r\n\r\n").encode() + body
    started = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(request)
        chunks = [conn.recv(65536)]
        first = time.perf_counter()
        while chunks[-1]:
            chunks.append(conn.recv(65536))
    total = time.perf_counter() - started
    raw = b"".join(chunks)
    header_bytes, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    fields = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        fields[name.strip().lower()] = value.strip()
    return status, fields, payload, first - started, total


class ServeWorkload:
    """`repro --serve` children with a cache dir, driven by CLIENTS
    closed-loop clients. Each round starts a server on a fresh copy of the
    pre-filled cache and has every client send one block; every round so
    starts from the same store state (the server's cache grows with every
    miss, and its per-miss cost grows with it)."""

    def __init__(self, seed, program, work, failures):
        self.seed = seed
        self.program = program
        self.work = work
        self.failures = failures
        self.plan = ServePlan(seed)
        self.server = None
        self.port = None
        self.reference_rows = None  # per hit-pool spec, from the batch path
        self.etags = None
        self.misses = []  # (spec, rows) of every miss answered
        self.samples = {"hit": [], "miss": [], "304": []}
        self.ttfb = []
        self.stats = {"cache_hits": 0, "cache_misses": 0, "rejected": 0}
        self.lock = threading.Lock()
        self.pristine = None  # the pre-filled cache every round copies
        self.rounds = 0

    def setup(self, index):
        """Pre-fill a cache through the batch path (which also gives the
        reference rows), then start a server on it to learn every ETag."""
        self.stop()
        cache = os.path.join(self.work, f"cache-serve{index}")
        doc = os.path.join(self.work, "hits.json")
        rows = os.path.join(self.work, "hits.jsonl")
        write_text(doc, document(self.plan.hits))
        self.program.run(["--quick", "--from-scenarios", doc, "--cache-dir", cache,
                          "--metrics", rows], self.failures, "pre-fill")
        lines = read_text(rows).splitlines()
        self.failures.check(len(lines) == len(self.plan.hits), "one reference row per hit spec")
        if self.reference_rows is None and self.seed == DEFAULT_SEED:
            got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            want = expected_digests()["serve"]
            self.failures.check(got == want, f"serve rows digest {got} != recorded {want}")
        self.reference_rows = lines
        self.pristine = cache
        self.start_server(cache)
        self.etags = []
        for index_, hit in enumerate(self.plan.hits):
            status, fields, body, _, _ = http(self.port, "POST", "/run",
                                             document([hit]).encode())
            self.failures.check(status == 200 and "etag" in fields, "setup request answered")
            self.check_rows("hit", body, [self.reference_rows[index_]])
            self.etags.append(fields.get("etag", ""))
        self.stop()

    def start_server(self, cache):
        err = os.path.join(self.work, "serve.stderr")
        self.server_err = open(err, "w")
        self.server = subprocess.Popen(
            [self.program.path, "--serve", "127.0.0.1:0", "--cache-dir", cache],
            cwd=self.work, stdout=subprocess.DEVNULL, stderr=self.server_err)
        deadline = time.monotonic() + 60
        while self.port is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                sys.stderr.write(read_text(err))
                raise RuntimeError("repro --serve did not start")
            # Only whole lines: the banner may still be half written.
            for line in read_text(err).split("\n")[:-1]:
                if "serving on http://" in line:
                    self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.002)
        status, _, _, _, _ = http(self.port, "GET", "/health")
        self.failures.check(status == 200, "server health")

    def stop(self):
        """Stops the server and returns its peak RSS in KiB (0 if none)."""
        if self.server is None:
            return 0
        self.server.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.server.pid, 0)
        self.server.returncode = os.waitstatus_to_exitcode(status)
        self.server_err.close()
        self.server = None
        self.port = None
        return usage.ru_maxrss

    def check_rows(self, cls, body, expected):
        lines = body.decode().splitlines()
        summary = json.loads(lines[0]) if lines else {}
        hits = summary.get("cache_hits", -1)
        wanted = (1, 0) if cls == "hit" else (0, 1)
        self.failures.check((hits, summary.get("cache_misses", -1)) == wanted,
                            f"{cls} request cache counts {summary}")
        if expected is not None:
            self.failures.check(lines[1:] == expected, f"{cls} rows equal the batch path's")
        return lines[1:]

    def request(self, cls, pool_index, miss_spec):
        """Sends one request and checks its answer; returns its latency."""
        try:
            if cls == "miss":
                body = document([miss_spec]).encode()
                status, _, payload, ttfb, total = http(self.port, "POST", "/run", body)
                if self.failures.check(status == 200, f"miss status {status}"):
                    rows = self.check_rows(cls, payload, None)
                    with self.lock:
                        self.misses.append((miss_spec, rows))
            else:
                body = document([self.plan.hits[pool_index]]).encode()
                headers = [("If-None-Match", self.etags[pool_index])] if cls == "304" else []
                status, _, payload, ttfb, total = http(self.port, "POST", "/run", body, headers)
                if cls == "304":
                    self.failures.check(status == 304 and payload == b"",
                                        f"revalidation status {status}")
                elif self.failures.check(status == 200, f"hit status {status}"):
                    self.check_rows(cls, payload, [self.reference_rows[pool_index]])
        except (OSError, ValueError, IndexError) as error:
            # A refused connection or a garbled answer is a failed request.
            self.failures.check(False, f"{cls} request: {error!r}")
            return None
        with self.lock:
            self.samples[cls].append(total)
            if cls == "hit":
                self.ttfb.append(ttfb)
        return total

    def round(self):
        """One round: a server on a fresh copy of the pre-filled cache, one
        block from every client. Returns the round's wall time and its
        request count."""
        self.rounds += 1
        cache = os.path.join(self.work, "cache-round")
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(self.pristine, cache)
        self.start_server(cache)
        blocks = [self.plan.block(random.Random(f"client/{self.seed}/{self.rounds}/{i}"))
                  for i in range(CLIENTS)]
        try:
            started = time.perf_counter()
            threads = [threading.Thread(target=self.client, args=(block,))
                       for block in blocks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            stats = self.server_stats()
            for name in self.stats:
                self.stats[name] += stats[name]
        finally:
            self.program.peak_kb = max(self.program.peak_kb, self.stop())
        return elapsed, sum(len(block) for block in blocks)

    def client(self, block):
        for cls, pool_index, miss_spec in block:
            self.request(cls, pool_index, miss_spec)

    def server_stats(self):
        status, _, body, _, _ = http(self.port, "GET", "/stats")
        self.failures.check(status == 200, "stats answered")
        return json.loads(body)

    def verify_misses(self):
        """Every miss answer must equal the batch path's rows for its spec."""
        if not self.misses:
            return
        doc = os.path.join(self.work, "misses.json")
        rows = os.path.join(self.work, "misses.jsonl")
        write_text(doc, document([spec_ for spec_, _ in self.misses]))
        self.program.run(["--quick", "--from-scenarios", doc, "--metrics", rows],
                         self.failures, "miss verification")
        expected = read_text(rows).splitlines()
        for index, (_, got) in enumerate(self.misses):
            self.failures.check(got == expected[index:index + 1],
                                "miss rows equal the batch path's")

    def replay_bodies(self, seed):
        """One round's requests (a block per client) for the in-process
        replay."""
        return [{"class": cls,
                 "body": document([miss if cls == "miss" else self.plan.hits[pool]])}
                for client in range(CLIENTS)
                for cls, pool, miss in self.plan.block(random.Random(f"replay/{seed}/{client}"))]


def class_shares(samples):
    """Each request class's share of the summed request latency."""
    total = sum(sum(values) for values in samples.values())
    return {cls: sum(values) / total for cls, values in samples.items()}


# ------------------------------------------------------------ reporting --

def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def self_times(spans):
    """Each layer's self time. A pool job's is its busy time. Any other
    span's is its duration minus the time its children cover: the union of
    their intervals, plus, for a batch span, the least time its jobs can
    have covered (its longest job, or its jobs' busy time spread over its
    workers, whichever is more)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        if "busy" in span:
            totals[span["layer"]] += span["busy"]
            continue
        kids = children.get(span["id"], [])
        covered, last = 0.0, span["start"]
        for child in sorted((c for c in kids if "busy" not in c), key=lambda c: c["start"]):
            start, end = max(child["start"], last), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                last = end
        busy = [child["busy"] for child in kids if "busy" in child]
        jobs = max(max(busy, default=0.0), sum(busy) / span.get("workers", 1))
        duration = span["end"] - span["start"]
        covered = min(duration, covered + jobs)
        totals[span["layer"]] += duration - covered
    return totals


def finish(workload, seed, trace, failures, metrics, notes, facts):
    """Prints the record line (host facts, and `notes`: the sample count
    behind each median and percentile, and serve's class shares) and the
    result line."""
    table = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"]
             for entry in json.loads(read_text(os.path.join(ROOT, "BENCHMARK.json")))[table]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {table}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": failures.failed == 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict({"workload": workload, "seed": seed, "trace": trace, "host": facts}, **notes)
    os.makedirs(OUT_DIR, exist_ok=True)
    write_text(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json"),
               json.dumps(dict(record, result=result), indent=1))
    print(json.dumps(record))
    print(json.dumps(result))


# ----------------------------------------------------------------- main --

def run(args):
    repro, layers = build(args.trace)
    facts = host_facts()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures = Failures()
    program = Program(repro, work)
    if args.workload == "serve":
        load = ServeWorkload(args.seed, program, work, failures)
    else:
        load = BatchWorkload(args.workload, args.seed, program, work, failures)
    try:
        setups = []
        while not setups or not args.trace and len(setups) < MAX_SETUPS and (
                len(setups) < SETUPS or sum(setups) < SETUP_SECONDS):
            started = time.perf_counter()
            load.setup(len(setups))
            setups.append(time.perf_counter() - started)
        program.peak_kb = 0
        if args.trace:
            metrics, notes = traced(args, load, program, layers, work, failures)
        else:
            metrics, notes = untraced(args, load, program)
            metrics["setup_s"] = statistics.median(setups)
            notes["samples"]["setup_s"] = len(setups)
    finally:
        load.stop()
    shutil.rmtree(work, ignore_errors=True)
    finish(args.workload, args.seed, args.trace, failures, metrics, notes, facts)


def measure_rounds(load, seconds):
    """Runs rounds until `seconds` have passed (at least one); returns
    their wall times and the work they completed."""
    times, done = [], 0
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        elapsed, count = load.round()
        times.append(elapsed)
        done += count
    return times, done


def untraced(args, load, program):
    times, done = measure_rounds(load, args.seconds)
    metrics = {"wall_s": statistics.median(times), "requests_per_s": done / sum(times),
               "peak_rss_mb": program.peak_kb / 1024}
    notes = {"samples": {"wall_s": len(times)}}
    if isinstance(load, ServeWorkload):
        load.verify_misses()  # a batch run of its own, after the peak is read
        notes["serve_time_share"] = class_shares(load.samples)
    return metrics, notes


def traced(args, workload, program, layers, work, failures):
    """Per-layer metrics: a serve probe against the real server (client-side
    latencies per request class and the server's counters), then the
    in-process probe of every layer, which also replays the workload's
    round with tracing off and on."""
    metrics, samples = {}, {}
    serve = workload if isinstance(workload, ServeWorkload) else ServeWorkload(
        args.seed, program, work, failures)
    try:
        if serve is not workload:
            serve.setup(0)
        for _ in range(TRACED_ROUNDS):
            serve.round()
    finally:
        serve.stop()
    serve.verify_misses()
    for cls, values in serve.samples.items():
        metrics[f"run_{cls}_s_p50"] = quantile(values, 0.5)
        metrics[f"run_{cls}_s_p90"] = quantile(values, 0.9)
        samples[f"run_{cls}_s"] = len(values)
    for cls, share in class_shares(serve.samples).items():
        metrics[f"serve.time_share.{cls}"] = share
    metrics["server.ttfb_s"] = quantile(serve.ttfb, 0.5)
    samples["server.ttfb_s"] = len(serve.ttfb)
    for name, value in serve.stats.items():
        metrics[f"server.{name}"] = value

    # Every replay pass starts from its own copy of the same store.
    bodies = serve.replay_bodies(args.seed)
    if workload is serve:
        replay_doc, replay_source = os.path.join(work, "hits.json"), serve.pristine
    else:
        replay_doc, replay_source = workload.replay_inputs()
    replay_caches = os.path.join(work, "replay-caches")
    os.makedirs(replay_caches)
    if replay_source:
        for index in range(2 * REPLAY_PAIRS):
            shutil.copytree(replay_source, os.path.join(replay_caches, str(index)))
    bodies_path = os.path.join(work, "bodies.json")
    write_text(bodies_path, json.dumps(bodies))
    matrix_doc = os.path.join(work, "matrix.json")
    collectives_doc = os.path.join(work, "collectives.json")
    write_text(matrix_doc, document(matrix_specs(args.seed)))
    write_text(collectives_doc, document(collective_specs(args.seed)))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    replay_out = os.path.join(work, "replay.out")
    command = [layers, "--workload", args.workload, "--matrix-doc", matrix_doc,
               "--collectives-doc", collectives_doc, "--bodies", bodies_path,
               "--replay-doc", replay_doc, "--replay-caches", replay_caches,
               "--replay-pairs", str(REPLAY_PAIRS), "--replay-out", replay_out,
               "--work", work, "--spans", spans_path]
    done = subprocess.run(command, cwd=work, stdout=subprocess.PIPE, text=True)
    if not failures.check(done.returncode == 0, f"layer probe exited {done.returncode}"):
        raise RuntimeError("layer probe failed")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    metrics.update(probe["metrics"])
    samples.update(probe["samples"])
    failures.attempted += probe["attempted"]
    failures.failed += probe["failed"]

    replayed = read_text(replay_out)
    if workload is serve:
        rows = replayed.splitlines()
        served = [b for b in bodies if b["class"] != "304"]
        failures.check(len(rows) == len(served), "replay answers every request")
        for body, row in zip(served, rows):
            if body["class"] == "hit":
                index = serve.plan.hits.index(json.loads(body["body"])["scenarios"][0])
                failures.check(row == serve.reference_rows[index],
                               "replay hit rows equal the batch path's")
    else:
        workload.check_replay(replayed)

    metrics["trace.wall_s"] = probe["replay_wall_s"]
    metrics["trace.overhead_s"] = probe["replay_wall_s"] - probe["untraced_replay_wall_s"]
    with open(spans_path) as handle:
        spans = [json.loads(line) for line in handle]
    for layer, seconds in self_times(spans).items():
        metrics[f"self_s.{layer}"] = seconds
    metrics["failed_share"] = failures.failed / max(failures.attempted, 1)
    return metrics, {"samples": samples}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
