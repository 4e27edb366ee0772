"""Benchmark of the spatial-link CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/`` there.
Inputs are generated from the seed, then the CLI runs in fresh
single-threaded processes, one whole invocation per round, for about S
seconds (whole rounds, at least MIN_ROUNDS). Each round also samples the
set-up time SETUP_PER_ROUND times. The first round's artifacts are checked
against independent computations (checks.py) and every later round must
write the same bytes.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (band pairings for ``pipeline``,
origins for ``aar``), and the metrics. With ``--trace 0`` these are the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and the per-module metrics of probe.py's spans are reported
(medians over the traced rounds), with ``trace_overhead_s``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SPATIAL_LINK_"))}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(argv: list[str], root: str, env: dict, log_path: str) -> tuple[float, int, int]:
    """Run one child to its end: (wall seconds spawn to exit, exit code, peak RSS bytes).

    The child is reaped with wait4 so the peak resident set is its own,
    not the maximum over every child this process has had.
    """
    with open(log_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, ^C): end the child before leaving.
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"child ended by signal {-proc.returncode}: {' '.join(argv)}")
    return wall, proc.returncode, usage.ru_maxrss * 1024


def output_digest(path: str) -> dict[str, str]:
    """sha256 of every file the invocation wrote, by path relative to its output."""
    if os.path.isfile(path):
        files = [(os.path.basename(path), path)]
    else:
        files = [
            (os.path.relpath(os.path.join(d, f), path), os.path.join(d, f))
            for d, _, names in os.walk(path)
            for f in names
        ]
    digest = {}
    for rel, full in sorted(files):
        with open(full, "rb") as fh:
            digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def output_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, names in os.walk(path) for f in names)


def remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def failed_ops(wl: workloads.Workload, output: str) -> int:
    """Operations of a completed invocation that produced no result."""
    if wl.mode == "aar":
        return len(checks.read_json(output)["dropped_origins"])
    skipped = 0
    for d, _, names in os.walk(output):
        if "graph.json" in names:
            with open(os.path.join(d, "graph.json"), "rb") as fh:
                head = fh.read(4096)
            skipped += b'"note"' in head
    return skipped


def candidate_paths(wl: workloads.Workload, output: str) -> int:
    if wl.mode == "aar":
        files = [output]
    else:
        files = [os.path.join(d, "results.json") for d, _, names in os.walk(output) if "results.json" in names]
    total = 0
    for path in files:
        with open(path, "rb") as fh:
            total += fh.read().count(b'"path_index"')
    return total


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def upper_quartile(values: list[float]) -> float:
    """Upper quartile (inclusive method), taken for the set-up samples.

    On a shared 2-core machine the CPU rate switches between a fast and a
    slow level every few seconds. A median over a run's samples moves with
    the share of fast seconds in that run; the upper quartile sits on the
    slow level, which stays put (README.md, *Steadiness*).
    """
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


class Bench:
    def __init__(self, args, root: str, work: str):
        self.args = args
        self.root = root
        self.env = child_env(root)
        self.wl = workloads.prepare(args.workload, args.seed, os.path.join(work, "inputs"))
        py = sys.executable
        self.cli = [py, "-s", "-m", "spatial_link", *self.wl.argv]
        probe = [py, "-s", os.path.join(HERE, "probe.py"), "--root", root]
        self.setup_probe = [*probe, "--stop-at-graph", "--", *self.wl.argv]
        self.trace_file = os.path.join(work, "spans.json")
        self.traced = [*probe, "--trace", self.trace_file, "--", *self.wl.argv]
        self.log = os.path.join(work, "child.log")
        self.first = os.path.join(work, "first")
        self.first_digest = None
        self.failed_per_round = 0
        self.invocations = 0
        self.failed = 0
        self.identical = True

    def warm_up(self) -> None:
        """Compile the package's bytecode and confirm it comes from this checkout."""
        out = subprocess.run(
            [sys.executable, "-s", "-c", "import spatial_link.cli as c; print(c.__file__)"],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        where = out.stdout.strip()
        if out.returncode != 0 or not where.startswith(os.path.join(self.root, "src") + os.sep):
            raise BenchError(f"cannot import spatial_link from {self.root}/src: {out.stderr.strip() or where}")

    def invoke(self, argv: list[str]) -> tuple[float, int, int]:
        """One whole round of operations: (wall seconds, exit code, peak RSS bytes)."""
        remove(self.wl.output)
        wall, code, rss = spawn(argv, self.root, self.env, self.log)
        self.invocations += 1
        if code != 0:
            with open(self.log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
            self.failed += self.wl.ops_per_round
            return wall, code, rss
        digest = output_digest(self.wl.output)
        if self.first_digest is None:
            self.first_digest = digest
            self.failed_per_round = failed_ops(self.wl, self.wl.output)
            os.replace(self.wl.output, self.first)
        elif digest != self.first_digest:
            self.identical = False
        self.failed += self.failed_per_round
        return wall, code, rss

    def setup_sample(self) -> float:
        wall, code, _ = spawn(self.setup_probe, self.root, self.env, self.log)
        if code != 0:
            with open(self.log, errors="replace") as fh:
                raise BenchError(f"set-up probe failed ({code}): {fh.read()[-2000:]}")
        return wall

    def traced_round(self) -> tuple[float, dict]:
        remove(self.trace_file)
        wall, code, _ = self.invoke(self.traced)
        if code != 0:
            raise BenchError(f"traced invocation failed with exit code {code}")
        with open(self.trace_file) as fh:
            spans = json.load(fh)["spans"]
        return wall, layers.layer_metrics(spans)

    def measure(self) -> dict:
        self.warm_up()
        seconds = self.args.seconds
        walls, rss, setups, traced_walls, traced = [], [], [], [], []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - t0
            # Start another round only if it should end nearer the deadline
            # than stopping now would.
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 > seconds:
                break
            if self.args.trace:
                # Alternate which side goes first so drift hits both alike.
                steps = ["plain", "traced"] if rounds % 2 == 0 else ["traced", "plain"]
            else:
                steps = ["plain"] + ["setup"] * SETUP_PER_ROUND
            for step in steps:
                if step == "plain":
                    wall, code, peak = self.invoke(self.cli)
                    if code == 0:  # a failure is counted in `failed`, not timed
                        walls.append(wall)
                        rss.append(peak)
                elif step == "setup":
                    setups.append(self.setup_sample())
                else:
                    wall, per_layer = self.traced_round()
                    traced_walls.append(wall)
                    traced.append(per_layer)
            rounds += 1

        if self.first_digest is None or len(walls) < 2:
            raise BenchError("fewer than two untraced invocations completed")
        print(f"samples: run_s {[round(w, 3) for w in walls]} setup_s {[round(w, 3) for w in setups]} "
              f"traced run_s {[round(w, 3) for w in traced_walls]}", file=sys.stderr)
        if self.args.trace:
            metrics = {
                name: (median([t[name] for t in traced]), unit) for name, unit in layers.METRICS.items()
            }
            metrics["trace_overhead_s"] = (max(traced_walls) - max(walls), "s")
            return metrics
        # The slowest invocation: with only five to eight invocations a run,
        # the slow CPU level is steadier than any central statistic.
        run_s = max(walls)
        reps = candidate_paths(self.wl, self.first) * self.wl.replicates
        return {
            "run_s": (run_s, "s"),
            "setup_s": (upper_quartile(setups), "s"),
            "path_reps_per_s": (reps / run_s, "1/s"),
            "peak_rss_mb": (median(rss) / 1e6, "MB"),
            "artifact_mb": (output_bytes(self.first) / 1e6, "MB"),
        }

    def verify(self) -> bool:
        if not self.identical:
            print("check: a later round wrote different bytes than the first", file=sys.stderr)
            return False
        try:
            summary = checks.check(self.wl.mode, self.wl.params, self.first)
        except checks.CheckFailed as exc:
            print(f"check: FAILED: {exc}", file=sys.stderr)
            return False
        print(f"check: passed {json.dumps(summary)}", file=sys.stderr)
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spatial-link CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spatial_link", "cli.py")):
        print(f"run.py: {root} holds no src/spatial_link; run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args, root, work)
        metrics = bench.measure()
        correct = bench.verify()
        attempted = bench.invocations * bench.wl.ops_per_round
        failed = bench.failed
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
