#!/usr/bin/env python3
"""The sfa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `sfa` and the `perfbench` helper
from source (into $CARGO_TARGET_DIR, default .bench_build), generates the
workload's seeded input under .bench_tmp/, drives the real `sfa` binary on
it for S seconds and checks every output. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones of a traced run, printed after a table of span self times.

Workloads (see README.md for why each exists):
  large-budget   sfa mine --memory-budget 1 MiB, sequential; MH, MH-rowsort, K-MH, M-LSH
  large-threads  sfa mine --threads 2 on the same table; same four schemes
  dense-stream   sfa mine, streaming, on the paper's 10^4-column table; M-LSH, H-LSH
  serve-ingest   sfa serve --threads 2 under two closed-loop clients sending
                 the repository load generator's mix; every 50th request of
                 a client is an INGEST

A failed check, program or request makes `correct` false and counts in
`failed`; the JSON line is printed all the same. Only a failed build exits
without it.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
S_STAR = 0.7
BUDGET = 1 << 20
SETUP_REPEATS = 9
SERVE_SPAWNS = 5
# Every program process is killed this many seconds after the run began,
# so a hung one cannot hold the run past its 180-second limit.
HARD_LIMIT_S = 165

MINE_WORKLOADS = {
    "large-budget": {
        "schemes": ["mh", "mh-rowsort", "kmh", "mlsh"],
        "mode": ["--memory-budget", str(BUDGET)],
        # Every run also mines once in the other mode: the pair lines of
        # the two modes must be byte-identical.
        "cross_mode": ["--threads", "2"],
    },
    "large-threads": {
        "schemes": ["mh", "mh-rowsort", "kmh", "mlsh"],
        "mode": ["--threads", "2"],
        "cross_mode": ["--memory-budget", str(BUDGET)],
    },
    "dense-stream": {
        "schemes": ["mlsh", "hlsh"],
        "mode": [],
        "cross_mode": None,
    },
}
WORKLOADS = list(MINE_WORKLOADS) + ["serve-ingest"]

# Extra `sfa mine` flags per scheme (everything else is the CLI default).
SCHEME_FLAGS = {"hlsh": ["--r", "12", "--l", "10"]}
METRIC_NAME = {"mh-rowsort": "mh_rowsort"}

# Planted pairs at or above s* a scheme may miss before the run fails. The
# schemes are randomized, so a miss is possible: M-LSH's 20 bands of 5 rows
# miss a pair at exactly 0.7 with probability (1 - 0.7^5)^20 = 2.6%, and an
# MH-family estimate at 0.7 falls under (1 - delta) s* = 0.56 about once in
# a thousand. See README.md for the misses measured over seeds.
ALLOWED_MISSES = {"mh": 1, "mh-rowsort": 1, "kmh": 1, "mlsh": 3, "hlsh": 3}


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


class Aborted(Exception):
    """A failure after which the workload cannot go on."""


class Bench:
    """One run: the built binaries, a scratch directory, and the tallies
    behind `attempted`, `failed` and `correct`."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.sfa = None
        self.helper = None
        # Programs write their temporary files (spills) inside the checkout.
        self.env = dict(os.environ, TMPDIR=tmp)
        self.live = []
        self.kill_at = time.monotonic() + HARD_LIMIT_S

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def abort(self, what):
        """Counts a failure and ends the workload; the result still prints."""
        self.fail(what)
        raise Aborted(what)

    def build(self):
        target = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        )
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "sfa"],
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ):
            if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
                sys.exit(f"build failed: {' '.join(cmd)}")
        self.sfa = os.path.join(target, "release", "sfa")
        self.helper = os.path.join(target, "release", "perfbench")
        # The first run in a checkout may build for long; the limit on
        # program processes counts from here.
        self.kill_at = time.monotonic() + HARD_LIMIT_S

    def spawn(self, cmd, stdout):
        """Starts a program; its stderr goes to a file, read by `stderr_of`."""
        err = tempfile.TemporaryFile(mode="w+", dir=self.tmp)
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err, env=self.env,
                                cwd=self.tmp, text=True)
        proc.err_file = err
        self.live.append(proc)
        return proc

    @staticmethod
    def stderr_of(proc):
        proc.err_file.seek(0)
        return proc.err_file.read().strip()[:500]

    def reap(self, proc, timeout=HARD_LIMIT_S):
        """Waits for `proc` (killing it after `timeout` seconds, or at the
        run's hard limit if that comes first) and returns (exit code, peak
        RSS in MB)."""
        timeout = max(1.0, min(timeout, self.kill_at - time.monotonic()))
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self):
        """Kills and reaps whatever an aborted run left running."""
        for proc in list(self.live):
            proc.kill()
            self.reap(proc)

    def run(self, cmd):
        """Runs one program process; returns (seconds, exit code, stdout, peak MB)."""
        out_path = os.path.join(self.tmp, "stdout.txt")
        with open(out_path, "w") as out:
            start = time.perf_counter()
            proc = self.spawn(cmd, out)
            code, peak = self.reap(proc)
            seconds = time.perf_counter() - start
        with open(out_path) as f:
            stdout = f.read()
        if code != 0:
            print(f"{' '.join(cmd)} exited {code}: {self.stderr_of(proc)}", file=sys.stderr)
        return seconds, code, stdout, peak

    def generate(self, workload, seed, repeats):
        """Generates the input `repeats` times; returns the median seconds,
        the planted pairs and the table's (rows, cols)."""
        times = []
        for _ in range(repeats):
            self.attempted += 1
            seconds, code, stdout, _ = self.run(
                [self.helper, "gen", "--workload", workload, "--seed", str(seed),
                 "--dir", self.tmp])
            if code != 0:
                self.abort(f"input generation failed for {workload}")
            times.append(seconds)
        truth = {}
        with open(os.path.join(self.tmp, "truth.tsv")) as f:
            for line in f:
                i, j, sim = line.split("\t")
                truth[(int(i), int(j))] = float(sim)
        shape = tuple(int(n) for n in stdout.split())
        return statistics.median(times), truth, shape


# --- mining workloads -------------------------------------------------------

def mine_cmd(bench, scheme, mode):
    inp = os.path.join(bench.tmp, "input.sfab")
    if scheme == "mh-rowsort":
        # The CLI has no MH-rowsort flag; the helper runs the same pipeline
        # entry points `sfa mine` uses and prints the same output.
        return [bench.helper, "mine-rowsort", "--input", inp,
                "--spill-dir", os.path.join(bench.tmp, "spill")] + mode
    return ([bench.sfa, "mine", "--input", inp, "--scheme", scheme,
             "--threshold", str(S_STAR)] + SCHEME_FLAGS.get(scheme, []) + mode)


def parse_mine(stdout):
    """(candidate count, pair lines) of `sfa mine` output."""
    lines = stdout.splitlines()
    head = lines[0]
    candidates = int(head.split(": ", 1)[1].split(" ", 1)[0])
    n_pairs = int(head.split(" candidates, ", 1)[1].split(" ", 1)[0])
    pairs = lines[1:1 + n_pairs]
    if len(pairs) != n_pairs:
        raise ValueError(f"summary promises {n_pairs} pairs, got {len(pairs)}")
    return candidates, "\n".join(pairs)


def check_pairs(scheme, pair_text, truth):
    """Checks that every reported pair is planted, at or above s*, and
    carries its exact Jaccard, and that the scheme missed no more planted
    pairs at or above s* than it may. Returns (problems, missed)."""
    problems, found = [], set()
    for line in pair_text.splitlines():
        i, j, sim, inter, union = line.split("\t")
        key = (int(i), int(j))
        exact = int(inter) / int(union)
        planted = truth.get(key)
        if planted is None:
            problems.append(f"pair {key} is not a planted pair")
        elif abs(exact - planted) > 1e-12 or sim != f"{planted:.4f}" or exact < S_STAR:
            problems.append(f"pair {key} reported {sim} ({inter}/{union}), exact {planted}")
        found.add(key)
    missed = sum(1 for key, s in truth.items() if s >= S_STAR and key not in found)
    if missed > ALLOWED_MISSES[scheme]:
        problems.append(f"missed {missed} planted pairs at or above s*, "
                        f"allowed {ALLOWED_MISSES[scheme]}")
    return problems, missed


def mine_once(bench, scheme, mode, truth, outputs):
    """One `sfa mine`, counted as one operation that fails at most once;
    returns (seconds, peak MB, candidates, pairs), or None if it failed."""
    bench.attempted += 1
    seconds, code, stdout, peak = bench.run(mine_cmd(bench, scheme, mode))
    if code != 0:
        bench.fail(f"{scheme}: exit code {code}")
        return None
    try:
        candidates, pairs = parse_mine(stdout)
        problems, missed = check_pairs(scheme, pairs, truth)
    except (ValueError, IndexError) as e:
        bench.fail(f"{scheme}: unreadable output ({e})")
        return None
    first = outputs.setdefault(scheme, (pairs, missed))
    if first[0] != pairs:
        problems.append("pair lines differ between runs")
    if problems:
        bench.fail(f"{scheme}: " + "; ".join(problems[:3]))
        return None
    return seconds, peak, candidates, pairs


def run_mining(bench, workload, seed, seconds, trace):
    cfg = MINE_WORKLOADS[workload]
    setup_s, truth, _ = bench.generate(workload, seed, 1 if trace else SETUP_REPEATS)
    walls = {s: [] for s in cfg["schemes"]}
    peaks, outputs, candidates = [], {}, {}
    deadline = time.monotonic() + seconds
    # Round-robin over the schemes until the deadline; the traced run
    # needs only one round.
    while True:
        for scheme in cfg["schemes"]:
            got = mine_once(bench, scheme, cfg["mode"], truth, outputs)
            if got:
                walls[scheme].append(got[0])
                peaks.append(got[1])
                candidates[scheme] = got[2]
        if trace or time.monotonic() >= deadline:
            break
    if cfg["cross_mode"]:
        for scheme in cfg["schemes"]:
            mine_once(bench, scheme, cfg["cross_mode"], truth, outputs)
    for scheme, w in walls.items():
        if not w:
            bench.abort(f"{workload}: {scheme} never completed")
    medians = {s: statistics.median(w) for s, w in walls.items()}
    for s, (_, m) in outputs.items():
        print(f"{workload} {s}: pairs_missed={m}", file=sys.stderr)
    missed = sum(m for _, m in outputs.values())
    e2e = {
        "setup_s": setup_s,
        "latency_ms": 1e3 * sum(medians.values()),
        "tail_ms": 1e3 * max(medians.values()),
        "peak_rss_mb": max(peaks),
    }
    for s in cfg["schemes"]:
        print(f"{workload} {s}: " + " ".join(f"{w:.3f}" for w in walls[s]), file=sys.stderr)
    if not trace:
        return e2e
    layers = {f"mine.{METRIC_NAME.get(s, s)}_s": medians[s] for s in cfg["schemes"]}
    layers["quality.pairs_missed"] = missed
    traced = trace_mining(bench, workload, cfg, outputs, candidates)
    if traced:
        layers.update(traced)
        untraced = sum(medians.values())
        traced_s = layers.pop("trace.traced_s")
        layers["trace.coverage"] = traced_s / untraced
        layers["trace.overhead_s"] = traced_s - untraced
    return layers


def trace_mining(bench, workload, cfg, outputs, candidates):
    """The traced run: checks it reproduces every scheme's candidates and
    pairs, prints span self times, and returns its per-layer metrics."""
    bench.attempted += 1
    cmd = [bench.helper, "trace", "--input", os.path.join(bench.tmp, "input.sfab"),
           "--schemes", ",".join(cfg["schemes"]),
           "--spill-dir", os.path.join(bench.tmp, "trace-spill")] + cfg["mode"]
    _, code, stdout, _ = bench.run(cmd)
    if code != 0:
        bench.fail(f"{workload}: traced run exited {code}")
        return None
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        bench.fail(f"{workload}: traced run printed no JSON ({e})")
        return None
    traced_s, problems = 0.0, []
    for scheme in cfg["schemes"]:
        got = doc["schemes"][scheme]
        # (i, j, intersection, union) of every pair, in (i, j) order.
        want = sorted(tuple(int(f) for f in (fs[0], fs[1], fs[3], fs[4]))
                      for fs in (l.split("\t") for l in outputs[scheme][0].splitlines()))
        if got["candidates"] != candidates[scheme]:
            problems.append(f"{scheme} made {got['candidates']} candidates, "
                            f"sfa mine {candidates[scheme]}")
        if sorted(map(tuple, got["pairs"])) != want:
            problems.append(f"{scheme} pairs differ from sfa mine's")
        if got["sharded"] is not None:
            if sorted(map(tuple, got["sharded"]["pairs"])) != want:
                problems.append(f"{scheme} run_sharded pairs differ from sfa mine's")
            traced_s += got["sharded"]["seconds"]
        else:
            traced_s += got["path_s"]
    if problems:
        bench.fail(f"{workload} traced run: " + "; ".join(problems[:3]))
    print_spans(doc["spans"])
    layers = dict(doc["layers"])
    layers["trace.traced_s"] = traced_s
    return layers


def print_spans(spans):
    """Prints each span's total and self time (total minus its children)."""
    child = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    print(f"{'span':<32} {'total_s':>10} {'self_s':>10}")
    for n, (name, parent, start, end) in enumerate(spans):
        indent = "  " if parent is not None else ""
        print(f"{indent + name:<32} {(end - start) / 1e9:>10.4f} "
              f"{(end - start - child[n]) / 1e9:>10.4f}")


# --- serve-ingest ------------------------------------------------------------

def read_line(proc, timeout):
    """The server's first stdout line, or None after `timeout` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else None


def start_server(bench, n):
    """Spawns `sfa serve`; returns (process, address, seconds to `listening`)."""
    state = os.path.join(bench.tmp, f"state{n}")
    shutil.rmtree(state, ignore_errors=True)
    cmd = [bench.sfa, "serve", "--input", os.path.join(bench.tmp, "input.sfab"),
           "--threads", "2", "--state-dir", state, "--threshold", str(S_STAR),
           "--metrics-json", os.path.join(bench.tmp, f"serve{n}.json")]
    start = time.perf_counter()
    proc = bench.spawn(cmd, subprocess.PIPE)
    line = read_line(proc, 60)
    ready = time.perf_counter() - start
    if not line or not line.startswith("listening on "):
        bench.abort(f"sfa serve did not start: {bench.stderr_of(proc)}")
    return proc, line.split()[-1], ready


def stop_server(bench, proc, n):
    """SIGTERMs the server; checks it drained (exit 3) and returns its
    peak RSS and serving metrics."""
    proc.send_signal(signal.SIGTERM)
    code, peak = bench.reap(proc, timeout=30)
    proc.stdout.close()
    if code != 3:
        bench.fail(f"sfa serve exited {code} after SIGTERM, want 3")
        return peak, None
    try:
        with open(os.path.join(bench.tmp, f"serve{n}.json")) as f:
            return peak, json.load(f)["metrics"]["serving"]
    except (OSError, ValueError, KeyError) as e:
        bench.fail(f"sfa serve wrote no serving metrics ({e!r})")
        return peak, None


def run_serve(bench, seed, seconds, trace):
    _, _, (n_rows, n_cols) = bench.generate("serve-ingest", seed, 1)
    ready_times, peaks = [], []
    # Set-up is timed over several spawns; the last server takes the load.
    for n in range(SERVE_SPAWNS):
        bench.attempted += 1
        proc, addr, ready = start_server(bench, n)
        ready_times.append(ready)
        if n + 1 < SERVE_SPAWNS:
            peak, _ = stop_server(bench, proc, n)
            peaks.append(peak)
    load_cmd = [bench.helper, "load", "--addr", addr, "--seconds", str(seconds),
                "--seed", str(seed), "--cols", str(n_cols), "--base-rows", str(n_rows)]
    _, code, stdout, _ = bench.run(load_cmd)
    peak, serving = stop_server(bench, proc, SERVE_SPAWNS - 1)
    peaks.append(peak)
    try:
        load = json.loads(stdout) if code == 0 else None
    except ValueError:
        load = None
    if load is None:
        bench.abort(f"load client exited {code} without a report")
    # Each request is an operation; a refused, closed, timed-out or
    # protocol-violating one is a failed one.
    bench.attempted += load["answered"] + load["failed"]
    bench.failed += load["failed"]
    if load["violations"]:
        bench.errors.append(f"{load['violations']} protocol violations, first: "
                            f"{load['first_violation']}")
    if serving is not None:
        # The server's own account, checked once against the client's.
        bench.attempted += 1
        problems = []
        if serving["answered"] + serving["shed"] + serving["timed_out"] != serving["accepted"]:
            problems.append(f"serving metrics do not balance: {serving}")
        if serving["answered"] != load["replies"]:
            problems.append(f"server answered {serving['answered']}, "
                            f"client saw {load['replies']}")
        if serving["ingested_rows"] != load["ingests"]:
            problems.append(f"server ingested {serving['ingested_rows']}, "
                            f"client acked {load['ingests']}")
        if problems:
            bench.fail("; ".join(problems))
    if load["windows"] == 0 or load["visible_samples"] == 0:
        bench.abort(f"too little load to measure: {load}")
    print(f"serve-ingest: {json.dumps(load)}", file=sys.stderr)
    setup_s = statistics.median(ready_times)
    if not trace:
        return {
            "setup_s": setup_s,
            "latency_ms": load["p50_us"] / 1e3,
            "tail_ms": load["p99_us"] / 1e3,
            "peak_rss_mb": max(peaks),
        }
    layers = {
        "query.p50_us": load["p50_us"],
        "query.p99_us": load["p99_us"],
        "query.qps": load["answered"] / seconds,
        "query.ingest_visible_ms": load["ingest_visible_ms"],
        "serve.server_p99_us": serving["p99_micros"] if serving else 0,
        "serve.snapshot_swaps": serving["snapshot_swaps"] if serving else 0,
        "serve.shed": serving["shed"] if serving else 0,
        "serve.timed_out": serving["timed_out"] if serving else 0,
    }
    bench.attempted += 1
    _, code, stdout, _ = bench.run(
        [bench.helper, "trace-serve", "--input", os.path.join(bench.tmp, "input.sfab"),
         "--seed", str(seed), "--ingests", str(load["ingests"]),
         "--state-dir", os.path.join(bench.tmp, "wal")])
    try:
        doc = json.loads(stdout) if code == 0 else None
    except ValueError:
        doc = None
    if doc is None:
        bench.fail(f"traced serve run exited {code} without a report")
        return layers
    print_spans(doc["spans"])
    layers.update(doc["layers"])
    # Spawn-to-listening is almost all the startup snapshot build.
    layers["trace.coverage"] = layers["serve.snapshot_build_s"] / setup_s
    layers["trace.overhead_s"] = layers["serve.snapshot_build_s"] - setup_s
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    end_to_end, per_layer = load_benchmark_spec()

    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    bench = Bench(tmp)
    values = {}
    try:
        bench.build()
        if args.workload == "serve-ingest":
            values = run_serve(bench, args.seed, args.seconds, args.trace)
        else:
            values = run_mining(bench, args.workload, args.seed, args.seconds, args.trace)
    except Aborted:
        pass
    finally:
        bench.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        if not args.trace and not value and not bench.failed:
            bench.fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for e in bench.errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
