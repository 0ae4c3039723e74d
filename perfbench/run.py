#!/usr/bin/env python3
"""End-to-end benchmark of the PACOR routing flow.

Builds the routing worker (``perfbench/``, a Cargo package of its own),
generates the seeded chips of one workload, routes them one at a time
with the default ``FlowConfig`` under a per-chip deadline, checks every
output and prints one JSON result line. See README.md for the workloads,
the metrics and how to read them.

    python3 perfbench/run.py --workload mcf-cold256 --seed 1 --seconds 20 --trace 0

Run it from the root of the repository.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-chip deadline (s) and chip-pool size of every workload. A deadline
# sits well above the workload's good-case routing time on a 2-CPU x86-64
# host: B4-dense256 0.45-0.9 s with rare chips up to 3 s, B3-dense96
# 0.05-1.1 s, Chip1 1.1-1.4 s once MWCP selection terminates.
WORKLOADS = {
    "mcf-cold256": {"deadline_s": 6.0, "pool": 48},
    "escape-dense96": {"deadline_s": 4.0, "pool": 64},
    "lm-chip1": {"deadline_s": 4.0, "pool": 32},
}
# An untraced run routes each of its chips this many times, spread over
# the run, and keeps each chip's fastest route (see route_phase).
PASSES = 2
# Set-up is timed again every SETUP_EVERY_S of the routing phase, so that
# its median spans the same stretches of host speed as the routes.
SETUP_EVERY_S = 2.0
STAGES = ("clustering", "lm_routing", "mst_routing", "escape", "detour")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the worker in release mode and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: building the routing worker failed")
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "pacor-perfbench")


def synthesize(exe, workload, seed, count):
    """Generates and serializes `count` chips. Returns the pool, a list
    of (problem JSON, valves, LM clusters), each chip's synthesis ms, and
    the ms the `synth` process took to generate and write the pool."""
    out = subprocess.run([exe, "synth", workload, str(seed), str(count)],
                         stdout=subprocess.PIPE, check=True, cwd=ROOT).stdout
    lines = out.decode().splitlines()
    sizes = json.loads(lines[-1])
    pool = list(zip(lines[:-1], sizes["valves"], sizes["lm_clusters"]))
    return pool, sizes["synth_ms"], sizes["total_ms"]


def vm_hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Worker:
    """One `pacor-perfbench serve` process; routes one chip at a time."""

    def __init__(self, exe):
        self.proc = subprocess.Popen([exe, "serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
        self.bufs = {self.proc.stdout.fileno(): b"", self.proc.stderr.fileno(): b""}
        self.peak_kib = 0
        line = self._read_line(time.monotonic() + 60.0, [])
        if line != "ready":
            self.stop()
            raise SystemExit("perfbench: routing worker did not start")

    def _read_line(self, until, events):
        """Next stdout line before `until`, or None. Stderr telemetry
        lines are appended to `events` with their arrival time."""
        out_fd = self.proc.stdout.fileno()
        while True:
            if b"\n" in self.bufs[out_fd]:
                line, self.bufs[out_fd] = self.bufs[out_fd].split(b"\n", 1)
                return line.decode()
            left = until - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select(list(self.bufs), [], [], left)
            now = time.monotonic()
            for fd in ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    if fd == out_fd:
                        return None
                    self.bufs.pop(fd)
                    continue
                self.bufs[fd] += chunk
                if fd != out_fd:
                    *done, self.bufs[fd] = self.bufs[fd].split(b"\n")
                    for raw in done:
                        try:
                            events.append((now, json.loads(raw)))
                        except ValueError:
                            pass

    def route(self, mode, problem, deadline_s):
        """Routes one chip. Returns (answer or None, elapsed_s, events)."""
        events = []
        start = time.monotonic()
        try:
            self.proc.stdin.write(f"{mode}\t{problem}\n".encode())
            self.proc.stdin.flush()
        except OSError:
            return None, time.monotonic() - start, events
        line = self._read_line(start + deadline_s, events)
        elapsed = time.monotonic() - start
        if line is None:
            return None, elapsed, events
        answer = json.loads(line)
        self.peak_kib = max(self.peak_kib, answer["rss_kib"])
        return answer, elapsed, events

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        """Kills the worker and waits until it has ended."""
        if self.proc.poll() is None:
            self.peak_kib = max(self.peak_kib, vm_hwm_kib(self.proc.pid))
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                f.close()
            except OSError:
                pass


# Per-layer metrics that are self times (ms per chip), and the stage
# that each telemetry stage name falls under when a stopped chip's
# spans are lost with its worker.
LAYER_MS = ("flow.net_solve_ms", "flow.roi_solve_ms", "flow.build_ms", "flow.delta_apply_ms",
            "escape_stage.self_ms", "lm_routing.self_ms", "route.negotiate_ms",
            "mst_routing.self_ms", "detour.ms", "core.unattributed_ms")
STAGE_LAYER = {"clustering": "core.unattributed_ms", "lm_routing": "lm_routing.self_ms",
               "mst_routing": "mst_routing.self_ms", "escape": "escape_stage.self_ms",
               "detour": "detour.ms"}
# Worker counters per chip -> per-layer metric name.
LAYER_COUNTS = {"flow.net_solves": "flow.net_solves", "flow.roi_solves": "flow.roi_solves",
                "escape.rounds": "escape.rounds", "escape.ripped": "escape.ripped",
                "escape.declustered": "escape.declustered", "dme.candidates": "dme.candidates",
                "mwcp.pair_scores": "clique.pair_scores",
                "negotiate.rounds": "route.negotiate_rounds", "negotiate.ripups": "route.ripups",
                "astar.expansions": "route.astar_expansions",
                "detour.segments": "detour.segments"}
# Tolerance of the check that layer self times add up to a chip's wall.
ADD_UP_TOL_MS = 0.05
CHECKED = ("valves_routed", "matched_clusters", "total_length")


class Chip:
    """What happened to one attempted chip."""

    def __init__(self, valves, lm_clusters):
        self.valves = valves
        self.lm_clusters = lm_clusters
        self.route_ms = 0.0
        self.reasons = []          # failure reasons; empty when legal
        self.wrong = False         # a returned output failed a check
        self.fields = None         # CHECKED values of a legal route
        self.traced = None         # the traced answer (trace runs)
        self.stage_ms = {}         # per-layer ms of a stopped traced route
        self.killed_in = None      # stage a traced route was stopped in
        self.candidates = 0        # DME candidates seen in the stream

    def fail(self, reason, wrong=False):
        if reason not in self.reasons:
            self.reasons.append(reason)
        self.wrong |= wrong


def stopped_stage_ms(events, stop_time, elapsed_s):
    """Per-layer ms of a chip stopped at its deadline, read from its
    telemetry stream: finished stages by their own elapsed time, the
    running stage from its entry to the stop, the rest unattributed."""
    layers, running = {}, None
    for arrived, ev in events:
        if ev.get("kind") == "stage_entered":
            running = (ev["stage"], arrived)
        elif ev.get("kind") == "stage_exited":
            key = STAGE_LAYER.get(ev["stage"], "core.unattributed_ms")
            layers[key] = layers.get(key, 0.0) + ev["elapsed_us"] / 1e3
            running = None
    if running:
        key = STAGE_LAYER.get(running[0], "core.unattributed_ms")
        layers[key] = layers.get(key, 0.0) + (stop_time - running[1]) * 1e3
    rest = elapsed_s * 1e3 - sum(layers.values())
    layers["core.unattributed_ms"] = layers.get("core.unattributed_ms", 0.0) + max(rest, 0.0)
    return layers, (running[0] if running else None)


class Setup:
    """A run's set-up: generating and serializing the chip pool, then
    starting a routing worker. It is timed as the `synth` process reports
    its own work, plus the worker's start until it is ready; the
    benchmark's own reading of the pool is left out."""

    def __init__(self, exe, workload, seed, count):
        self.exe = exe
        self.args = (workload, seed, count)
        self.seconds = []
        self.pool = self.synth_ms = None
        self.done_at = 0.0

    def __call__(self):
        """Sets up once; returns the started worker. A repeated set-up
        must generate the same pool."""
        pool, synth_ms, total_ms = synthesize(self.exe, *self.args)
        start = time.monotonic()
        worker = Worker(self.exe)
        self.done_at = time.monotonic()
        self.seconds.append(total_ms / 1e3 + self.done_at - start)
        if self.pool is not None and pool != self.pool:
            worker.stop()
            raise SystemExit("perfbench: one seed generated two different chip pools")
        self.pool, self.synth_ms = pool, synth_ms
        return worker

    def due(self):
        return time.monotonic() - self.done_at >= SETUP_EVERY_S


class Router:
    """Closed loop with one client: routes chips one at a time, each in a
    fresh worker process (as `pacor-cli route` does), so that a chip
    stopped at its deadline takes nothing with it and every chip's peak
    memory is its own."""

    def __init__(self, exe, worker=None):
        self.exe = exe
        self.spare = worker        # a worker started during set-up
        self.peak_kib = []         # VmHWM of every untraced route's worker

    def route(self, chip, mode, problem, deadline_s):
        """One route; returns the answer of a legal route, else None."""
        worker, self.spare = self.spare or Worker(self.exe), None
        try:
            answer, elapsed, events = worker.route(mode, problem, deadline_s)
            stop_time = time.monotonic()
            alive = worker.alive()
        finally:
            worker.stop()
        if mode == "U":
            self.peak_kib.append(worker.peak_kib)
            chip.route_ms = answer["route_ms"] if answer else elapsed * 1e3
        if answer is None:
            chip.fail("deadline" if alive else "crash")
            if mode == "T":
                chip.stage_ms, chip.killed_in = stopped_stage_ms(events, stop_time, elapsed)
        elif answer["status"] != "ok":
            chip.fail(answer["status"])
        for check in answer["checks_failed"] if answer and answer["status"] == "ok" else ():
            chip.fail(check, wrong=True)
        for _, ev in events:
            if ev.get("kind") == "dme_progress":
                chip.candidates += ev["candidates"]
        if answer is None or answer["status"] != "ok" or answer["checks_failed"]:
            return None
        return answer

    def give(self, worker):
        """Uses `worker` for the next route."""
        self.close()
        self.spare = worker

    def close(self):
        if self.spare:
            self.spare.stop()
            self.spare = None


def route_phase(router, pool, seconds, deadline_s, traced, passes=1, max_chips=None,
                setup=None):
    """Routes chips of `pool` in order (cycling) for about `seconds`.

    Chips are routed for `seconds / passes`; then the same chips are
    routed `passes - 1` more times, untraced, and each chip keeps its
    fastest route. On a busy shared host one chip's time varies by up to
    40% from route to route; routes spread over the run rarely all land
    in a slow moment. Every repeated route must give the same result. A
    traced run routes each chip untraced, then traced, and checks the
    traced route's layer accounting. When `setup` is given, it is
    repeated whenever due, and its worker takes the next route. Returns
    the chips and the wall seconds of their first untraced routes, each
    from its worker's start to its end."""
    chips, first, wall_s = [], {}, 0.0

    def route_untraced(i, chip):
        if setup and setup.due():
            router.give(setup())
        answer = router.route(chip, "U", pool[i][0], deadline_s)
        if answer:
            chip.fields = tuple(answer[k] for k in CHECKED)
            if first.setdefault(i, chip.fields) != chip.fields:
                chip.fail("repeat_mismatch", wrong=True)

    start = time.monotonic()
    while (time.monotonic() - start < seconds / passes
           and (max_chips is None or len(chips) < max_chips)):
        i = len(chips) % len(pool)
        chip = Chip(*pool[i][1:])
        chips.append(chip)
        t = time.monotonic()
        route_untraced(i, chip)
        wall_s += time.monotonic() - t
        if traced:
            chip.traced = router.route(chip, "T", pool[i][0], deadline_s)
            if chip.traced:
                check_traced(chip)
    for _ in range(passes - 1):
        for n, chip in enumerate(chips):
            faster = chip.route_ms
            route_untraced(n % len(pool), chip)
            chip.route_ms = min(faster, chip.route_ms)
    return chips, wall_s


def check_traced(chip):
    """The traced route must agree with the untraced one, and its layer
    self times must account for all of its wall: no root span outside
    the layers, no gap beyond ADD_UP_TOL_MS."""
    answer = chip.traced
    if chip.fields and chip.fields != tuple(answer[k] for k in CHECKED):
        chip.fail("trace_mismatch", wrong=True)
    if answer["unmapped_spans"]:
        log(f"spans outside every layer: {answer['unmapped_spans']}")
        chip.fail("unmapped_spans", wrong=True)
    if add_up_error_ms(answer) > ADD_UP_TOL_MS:
        log(f"layer self times miss the chip's wall by {add_up_error_ms(answer):.3f} ms")
        chip.fail("layers_miss_wall", wrong=True)


def outcome_metrics(chips, wall_s):
    """Chip-level outcomes over every attempted chip; a failed chip's
    valves count as unrouted and its clusters as unmatched."""
    legal = [c for c in chips if not c.reasons]
    valves = sum(c.valves for c in chips)
    routed = sum(c.fields[0] for c in legal)
    return {
        "outcome.fail_rate": (len(chips) - len(legal)) / len(chips),
        "outcome.chips_per_s": len(chips) / wall_s,
        "outcome.legal_chips_per_s": len(legal) / wall_s,
        "outcome.completion_rate": routed / valves if valves else 0.0,
        "outcome.matched_rate": (sum(c.fields[1] for c in legal)
                                 / max(1, sum(c.lm_clusters for c in chips))),
        "outcome.length_per_valve": sum(c.fields[2] for c in legal) / routed if routed else 0.0,
    }


def end_to_end(chips, setup_s, peak_kib):
    """Route time: median over chips, a stopped chip counting as the time
    until it was stopped. Memory: median over routes of the routing
    worker's VmHWM; a mean would follow the one Chip1 chip in five that
    finishes (about 55 MB, against about 5 MB at a stop)."""
    return {
        "route_ms_p50": statistics.median(c.route_ms for c in chips),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(peak_kib) / 1024.0,
    }


def layer_metrics(chips, synth_ms):
    """Per-layer metrics of a traced run: self times and work counts as
    means per attempted chip, deadline kills as totals per stage."""
    n = len(chips)
    sums = {k: 0.0 for k in LAYER_MS}
    counts = {k: 0.0 for k in LAYER_COUNTS.values()}
    kills = {f"{s}.deadline_kills": 0 for s in STAGES}
    verify_ms, queries, applies, fallbacks, traced_ms, plain_ms = 0.0, 0, 0, 0, 0.0, 0.0
    for c in chips:
        if c.traced:
            for k, v in c.traced["layers"].items():
                if k == "verify.ms":
                    verify_ms += v
                else:
                    sums[k] += v
            for k, v in c.traced["counts"].items():
                if k in LAYER_COUNTS:
                    counts[LAYER_COUNTS[k]] += v
            queries += c.traced["counts"]["astar.queries"]
            applies += c.traced["counts"]["flow.delta_applies"]
            fallbacks += c.traced["counts"]["escape.delta_fallback"]
            if c.fields:
                traced_ms += c.traced["route_ms"]
                plain_ms += c.route_ms
        else:
            for k, v in c.stage_ms.items():
                sums[k] += v
            counts["dme.candidates"] += c.candidates
            if c.killed_in:
                kills[f"{c.killed_in}.deadline_kills"] += 1
    out = {k: v / n for k, v in sums.items()}
    out.update({k: v / n for k, v in counts.items()})
    out.update(kills)
    out["flow.delta_fallback_ratio"] = fallbacks / applies if applies else 0.0
    out["route.expansions_per_query"] = counts["route.astar_expansions"] / queries if queries else 0.0
    out["verify.ms"] = verify_ms / n
    out["synth.ms"] = statistics.mean(synth_ms)
    out["trace.overhead_frac"] = traced_ms / plain_ms - 1.0 if plain_ms else 0.0
    return out


def add_up_error_ms(answer):
    """|sum of layer self times - traced wall| of one traced answer."""
    total = sum(v for k, v in answer["layers"].items() if k != "verify.ms")
    return abs(total - answer["traced_wall_ms"])


def source_digest():
    """sha256 over the tracked sources, for builds that are not a git
    checkout; the git commit when one is available."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "shims", "src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cfg = WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    exe = build()

    passes = 1 if args.trace else PASSES
    setup = Setup(exe, args.workload, args.seed, cfg["pool"])
    router = Router(exe, setup())
    try:
        chips, wall_s = route_phase(router, setup.pool, args.seconds, cfg["deadline_s"],
                                    args.trace == 1, passes, setup=setup)
    finally:
        router.close()

    reasons = {}
    for c in chips:
        for r in c.reasons:
            reasons[r] = reasons.get(r, 0) + 1
    outcomes = outcome_metrics(chips, wall_s)
    if args.trace:
        metrics = layer_metrics(chips, setup.synth_ms)
        metrics.update(outcomes)
        units = layer_units
    else:
        metrics = end_to_end(chips, statistics.median(setup.seconds), router.peak_kib)
        units = e2e_units
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    host = {"host_cpus": os.cpu_count(), "machine": platform.machine(), "profile": "release",
            "commit": source_digest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "deadline_s": cfg["deadline_s"],
            "passes": passes, "setups": len(setup.seconds),
            "chips": len(chips), "chip_route_ms": [round(c.route_ms, 3) for c in chips],
            "failures": reasons, "outcomes": outcomes}
    shown = dict(outcomes, **metrics)
    for name in sorted(shown):
        log(f"{name:32s} {shown[name]:14.4f} {units.get(name) or layer_units[name]}")
    log(f"host {json.dumps(host)}")
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": not any(c.wrong for c in chips),
        "attempted": len(chips),
        "failed": sum(1 for c in chips if c.reasons),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
