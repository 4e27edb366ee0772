"""Self-test of the artifact checks: they pass on real output and bite on corrupt output.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload the CLI runs once on
the inputs of seed SEED; checks.py must accept its artifacts. Then each of these
corruptions is applied to a copy, and the checks must reject it with the
expected complaint:

- shifted p-value: every p-value with 0 < k < M becomes k/M, the
  estimate without the add-one, which is off the (1+k)/(1+M) lattice
  (k = 0 would give 0, and k = M gives 1, which is on it);
- p-value off the law: one score-1.0 path gets k = 0 or k = M (the end
  farther from its own k), with its p-value and decision kept consistent,
  so only the exact-law test can see it;
- dropped path: the last candidate path (or aar result) is removed;
- extra edge (pipeline workloads): an edge absent from the Delaunay graph
  is added to graph.json.

Exits 0 when every corruption is rejected and the clean artifacts pass.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import run
import workloads

SEED = 0


def edit_json(path: str, fn) -> None:
    doc = checks.read_json(path)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def shift(results: list, m: int) -> None:
    shifted = 0
    for r in results:
        k = round(r["p_value"] * (m + 1)) - 1
        if 0 < k < m:
            r["p_value"] = k / m
            shifted += 1
    if not shifted:
        raise RuntimeError("no result has 0 < k < M to shift")


def off_law(results: list, m: int, alpha: float) -> None:
    """Move the first score-1.0 path's count to the far end of [0, M]."""
    r = next(r for r in results if r["observed"] == 1.0)
    k = round(r["p_value"] * (m + 1)) - 1
    k = 0 if k > m / 2 else m
    r["p_value"] = (1 + k) / (1 + m)
    r["significant"] = r["p_value"] < alpha


def extra_edge(graph: dict) -> None:
    present = {(e["u"], e["v"]) for e in graph["edges"]}
    n = len(graph["nodes"])
    u, v = next((0, j) for j in range(n - 1, 0, -1) if (0, j) not in present)
    graph["edges"].append({"u": u, "v": v, "weight": 1, "distance": 1.0})
    graph["edges"].sort(key=lambda e: (e["u"], e["v"]))


def corruptions(wl: workloads.Workload):
    """(name, expected message fragment, function of the copied output path)."""
    m = wl.replicates
    if wl.mode == "aar":
        alpha = wl.params["alpha"]
        return [
            ("shifted p-value", "(1+k)/(1+M)", lambda out: edit_json(out, lambda d: shift(d["results"], m))),
            ("p-value off the law", "exact-law", lambda out: edit_json(out, lambda d: off_law(d["results"], m, alpha))),
            ("dropped path", "paths expected", lambda out: edit_json(out, lambda d: d["results"].pop())),
        ]
    cfg = wl.params["config"]
    alpha = cfg["alpha"]

    def pair(out: str) -> str:
        return os.path.join(out, "high_high") if cfg.get("sweep_bands") else out

    return [
        ("shifted p-value", "(1+k)/(1+M)",
         lambda out: edit_json(os.path.join(pair(out), "results.json"), lambda d: shift(d["results"], m))),
        ("p-value off the law", "exact-law",
         lambda out: edit_json(os.path.join(pair(out), "results.json"), lambda d: off_law(d["results"], m, alpha))),
        ("dropped path", "paths written",
         lambda out: edit_json(os.path.join(pair(out), "paths.json"), lambda d: d["paths"].pop())),
        ("extra edge", "graph edges differ",
         lambda out: edit_json(os.path.join(pair(out), "graph.json"), extra_edge)),
    ]


def copy(src: str, dst: str) -> None:
    run.remove(dst)
    if os.path.isdir(src):
        shutil.copytree(src, dst)
    else:
        shutil.copyfile(src, dst)


def selftest(name: str, seed: int, root: str, work: str) -> bool:
    wl = workloads.prepare(name, seed, os.path.join(work, name))
    cli = [sys.executable, "-s", "-m", "spatial_link", *wl.argv]
    done = subprocess.run(cli, cwd=root, env=run.child_env(root), capture_output=True, text=True)
    if done.returncode != 0:
        print(f"selftest {name}: the CLI failed: {done.stderr[-2000:]}")
        return False
    try:
        checks.check(wl.mode, wl.params, wl.output)
    except checks.CheckFailed as exc:
        print(f"selftest {name}: clean artifacts rejected: {exc}")
        return False
    print(f"selftest {name}: clean artifacts accepted")
    ok = True
    scratch = wl.output + ".corrupt"
    for label, fragment, corrupt in corruptions(wl):
        copy(wl.output, scratch)
        corrupt(scratch)
        try:
            checks.check(wl.mode, wl.params, scratch)
        except checks.CheckFailed as exc:
            caught = fragment in str(exc)
            ok &= caught
            verdict = "rejected" if caught else "rejected for another reason"
            print(f"selftest {name}: {label}: {verdict}: {exc}")
        else:
            ok = False
            print(f"selftest {name}: {label}: NOT rejected")
    return ok


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spatial_link", "cli.py")):
        print(f"selftest: {root} holds no src/spatial_link; run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(run.HERE, ".runs", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        results = [selftest(name, SEED, root, work) for name in workloads.WORKLOADS]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: PASS" if all(results) else "selftest: FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
