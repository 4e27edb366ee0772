"""Check that two checkouts write byte-identical artifacts on the benchmark workloads.

    python3 tools/compare_artifacts.py --base DIR --head DIR [--seeds 1 2 7] [--work DIR]

Each of ``--base`` and ``--head`` is the root of a checkout holding
``src/spatial_link``. The inputs of every workload (``null_dense``,
``sweep_cmad``, ``aar_corridors``) are prepared once per seed with
``perfbench/workloads.py``; each checkout's CLI then runs on those same
inputs from its own ``src/``, with ``PYTHONHASHSEED=0``, into its own
output path. ``null_dense`` also runs with ``--threads 2 --share-null
--bh``, with ``--threads 3 --m 130`` (blocks of the null that do not
divide the thread ranges), with ``--m 19`` (no path is significant), with
``--window``, ``--metric chebyshev`` and ``--band-scope global``, and as a
``stages`` run: ``build-graph``, ``extract-paths`` and ``significance``
with the workload's settings, each stage reading the base side's upstream
artifact on both sides. ``sweep_cmad``
also runs with ``--share-null``, and as a ``stages`` run of its
moderate/moderate pairing with its anomaly mask, with ``--max-len 7``,
so that the path walker runs deeper levels, and with ``--ub-multiplier
10``, which empties the anomalous band, so that 5 of its 9 pairings are
skipped and write artifacts with a note and no rows. ``aar_corridors`` also
runs with ``--threshold 1.0``, so that its edges weigh both +1 and -1. A
run may be expected to fail: ``null_dense`` with ``--cap 5000`` passes
the path cap after writing graph.json. Every artifact is compared byte
for byte, and standard output is compared with each side's output path
masked; a run expected to fail must fail on both sides with the same exit
code and the same standard error, masked the same way.

Prints one line per run: ``identical``, or every part that differs (exit
code, standard output, standard error, each artifact file) and how many
artifact files are identical. Exits 0 when every run matches, else 1.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

# Extra runs per workload: (label, flags) or (label, flags, FAILS). A list
# holds flags added to the workload's command; a dict stands for the stage
# commands in place of the pipeline, and holds the config entries it
# overrides. FAILS marks a run that both sides must end in the same error.
FAILS = True
EXTRA_RUNS = {
    "null_dense": [
        ("threads2-share-bh", ["--threads", "2", "--share-null", "--bh"]),
        # 130 replicates are no multiple of the null's block of 64, and
        # three threads split them 44/44/42.
        ("threads3-m130", ["--threads", "3", "--m", "130"]),
        ("stages", {}),
        # No workload crops its grids: this run writes GeoJSON coordinates on
        # a shifted registration, filters edges by the chebyshev metric and
        # bands on the whole fields (about 4,600 paths).
        ("window-chebyshev-global",
         ["--window", "3:17,5:60", "--metric", "chebyshev", "--band-scope", "global"]),
        # Every p-value is at least 1/(1 + 19) = alpha, so no path is
        # significant: the GeoJSON has no features and results.json's
        # significant column is all false.
        ("none-significant", ["--m", "19"]),
        # The workload has 8,256 paths, so enumeration passes the cap.
        ("cap", ["--cap", "5000"], FAILS),
    ],
    "sweep_cmad": [
        # sweep_cmad paths of one length score differently, unlike null_dense's.
        ("share", ["--share-null"]),
        # significance reads the cmad target band back from graph.json.
        ("stages", {"band_source": "moderate", "band_target": "moderate"}),
        # About 43k paths over deeper walker levels.
        ("maxlen7", ["--max-len", "7"]),
        # The anomalous band of both fields is then empty, so 5 of the 9
        # pairings are skipped and write their artifacts with a note and no
        # rows (checked at seeds 1, 2 and 7).
        ("empty-bands", ["--ub-multiplier", "10"]),
    ],
    # At the default threshold every aar edge weighs +1.
    "aar_corridors": [("threshold", ["--threshold", "1.0"])],
}
OUTPUT_MASK = "<output>"


def run_cli(root: str, argv: list[str], output: str) -> tuple[int, str, str]:
    """Run one checkout's CLI; return (exit code, masked stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SPATIAL_LINK_"))}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-s", "-m", "spatial_link", *argv],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout.replace(output, OUTPUT_MASK), proc.stderr


def artifact_files(root: str) -> list[str]:
    """Paths of every file under ``root``, relative to it."""
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names
    )


def artifact_differences(base_dir: str, head_dir: str) -> tuple[list[str], int]:
    """The artifact files that differ or exist on one side only, and the count of identical ones."""
    base_files, head_files = set(artifact_files(base_dir)), set(artifact_files(head_dir))
    problems = [f"{rel} is on one side only" for rel in sorted(base_files ^ head_files)]
    same = 0
    for rel in sorted(base_files & head_files):
        if filecmp.cmp(os.path.join(base_dir, rel), os.path.join(head_dir, rel), shallow=False):
            same += 1
        else:
            problems.append(f"{rel} differs")
    return problems, same


def compare(
    argv: list[str], output: str, roots: dict, work: str, fails: bool = False
) -> tuple[list[str], int]:
    """Every difference between the two sides' runs of one command, and the identical files.

    Each side writes where ``argv`` names ``output``, but under ``work/<side>``.
    With ``fails`` both sides must exit nonzero, with the same code and the
    same standard error.
    """
    outcomes, problems = {}, []
    for side, root in roots.items():
        side_dir = os.path.join(work, side)
        shutil.rmtree(side_dir, ignore_errors=True)
        os.makedirs(side_dir)
        side_output = os.path.join(side_dir, os.path.basename(output))
        side_argv = [side_output if arg == output else arg for arg in argv]
        code, stdout, stderr = run_cli(root, side_argv, side_output)
        if code == 0 and fails:
            problems.append(f"{side} exited 0, but the run is expected to fail")
        if code != 0 and not fails:
            problems.append(f"{side} exited {code}: {(stderr.strip().splitlines() or [''])[-1]}")
        outcomes[side] = (code, stdout, stderr.replace(side_output, OUTPUT_MASK))
    for part, what in enumerate(("exit code", "standard output", "standard error")):
        if outcomes["base"][part] != outcomes["head"][part]:
            problems.append(f"{what} differs")
    files, same = artifact_differences(os.path.join(work, "base"), os.path.join(work, "head"))
    return problems + files, same


def stage_commands(config: dict, shared: str) -> list[list[str]]:
    """The stage commands that redo a one-pairing pipeline config, in order.

    Each writes its artifact to ``shared`` (its ``-o``) and reads its
    upstream artifacts from there.
    """
    graph, paths = os.path.join(shared, "graph.json"), os.path.join(shared, "paths.json")
    inputs = ["--source", config["source"], "--target", config["target"]]
    if "mask" in config:
        inputs += ["--mask", config["mask"]]
    seed = ["--seed", str(config["seed"])]
    return [
        ["build-graph", *inputs, "--variant", config["variant"],
         "--band-source", config["band_source"], "--band-target", config["band_target"],
         "--dmax", str(config["dmax"]), *seed, "-o", graph],
        ["extract-paths", "--graph", graph, "--max-len", str(config["max_len"]), *seed,
         "-o", paths],
        ["significance", "--graph", graph, "--paths", paths, *inputs,
         "--m", str(config["m"]), "--alpha", str(config["alpha"]), *seed,
         "-o", os.path.join(shared, "results.json")],
    ]


def compare_stages(
    wl: workloads.Workload, overrides: dict, roots: dict, work: str
) -> tuple[list[str], int]:
    """Every difference between the two sides' stage commands, and the identical files."""
    problems, same = [], 0
    for argv in stage_commands({**wl.params["config"], **overrides}, work):
        output = argv[-1]
        found, identical = compare(argv, output, roots, os.path.join(work, argv[0]))
        problems += [f"{argv[0]}: {problem}" for problem in found]
        same += identical
        # The next stage reads the base side's artifact on both sides.
        base_output = os.path.join(work, argv[0], "base", os.path.basename(output))
        if not os.path.exists(base_output):
            break
        shutil.copyfile(base_output, output)
    return problems, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the reference checkout")
    parser.add_argument("--head", required=True, help="root of the checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 7])
    parser.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    args = parser.parse_args(argv)
    roots = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    for side, root in roots.items():
        if not os.path.isfile(os.path.join(root, "src", "spatial_link", "cli.py")):
            print(f"compare_artifacts: --{side} {root} holds no src/spatial_link", file=sys.stderr)
            return 2

    work = args.work or tempfile.mkdtemp(prefix="compare-artifacts-")
    differed = False
    try:
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                inputs = os.path.join(work, f"{name}-{seed}")
                wl = workloads.prepare(name, seed, inputs)
                for label, flags, *fails in [("", [])] + EXTRA_RUNS.get(name, []):
                    run_name = f"{name}{' ' + label if label else ''} seed {seed}"
                    run_dir = os.path.join(inputs, label or "default")
                    if isinstance(flags, dict):
                        problems, same = compare_stages(wl, flags, roots, run_dir)
                    else:
                        problems, same = compare(wl.argv + flags, wl.output, roots, run_dir,
                                                 *fails)
                    if problems:
                        differed = True
                        print(f"{run_name}: differs: {'; '.join(problems)} "
                              f"({same} artifact files identical)")
                    else:
                        print(f"{run_name}: identical")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
