"""Seeded synthetic inputs and CLI invocations of the benchmark workloads.

Inputs are written in grid format A (little-endian float32 payload next to
a JSON sidecar) with numpy alone, so the program under test receives only
files. Every input is a pure function of the workload name and the seed.

The layout (which cells qualify in which band, where corridors, station
and origins lie) comes from a fixed LAYOUT_SEED; the seed draws the values
placed on that layout, the anomaly mask, the origin jitter and the null
seed. So every seed does the same graph and path work. Redrawing the layout
per seed moved path counts, and with them run time, by 15-25% between
seeds, which would drown any change a program edit makes.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

BANDS = ("moderate", "high", "anomalous")

# Registration of the pipeline fields: the default global quarter-degree
# grid anchored at the south pole, as the program assumes.
POLAR_REGISTRATION = {"lat0": -90.0, "lon0": -180.0, "dlat": 0.25, "dlon": 0.25, "cell_km": 25.0}
# Quarter-degree mid-latitude strip for the point-field (aar) workload.
AAR_REGISTRATION = {"lat0": 30.125, "lon0": -179.875, "dlat": 0.25, "dlon": 0.25, "cell_km": 25.0}


@dataclass
class Workload:
    """One prepared workload: its inputs on disk and how to run it."""

    name: str
    mode: str  # "pipeline" or "aar"
    argv: list[str]  # CLI arguments after the program name
    output: str  # directory (pipeline) or report file (aar) the run writes
    ops_per_round: int  # band pairings (pipeline) or origins (aar)
    replicates: int  # null replicates M per tested path
    params: dict = field(default_factory=dict)  # what the checks need


def write_grid(path: str, values: np.ndarray, registration: dict) -> None:
    """Grid format A: float32 payload plus ``<path>.json`` sidecar."""
    np.asarray(values, dtype="<f4").tofile(path)
    rows, cols = values.shape
    with open(path + ".json", "w") as fh:
        json.dump({"rows": int(rows), "cols": int(cols), **registration}, fh)


LAYOUT_SEED = 20250709


def _rng(name: str, seed: int) -> np.random.Generator:
    tag = sum(ord(ch) * 131**k for k, ch in enumerate(name)) % (2**32)
    return np.random.default_rng([int(seed), tag])


def noise_field(layout: np.random.Generator, values: np.random.Generator, dims) -> np.ndarray:
    """Gaussian noise whose band layout is fixed and whose values are seeded.

    The layout generator draws a float32 field; the values generator then
    permutes values among cells of the same class (loss-negative below the
    median, moderate, high, anomalous; non-negative). The multiset of values
    is unchanged, so are the banding thresholds, so every cell keeps its band.
    """
    base = layout.normal(0.0, 1.0, size=dims).astype(np.float32).astype(np.float64)
    mags = np.abs(base)
    q1, med, q3 = np.quantile(mags[base < 0], [0.25, 0.5, 0.75])
    ub = q3 + 1.5 * (q3 - q1)
    cls = np.where(base < 0, np.searchsorted([med, q3, ub], mags, side="right"), 4)
    out = base.copy()
    for c in range(5):
        idx = np.flatnonzero(cls == c)
        out.flat[idx] = base.flat[idx[values.permutation(len(idx))]]
    return out


def _pipeline(name: str, seed: int, work: str, dims, config: dict, with_mask: bool) -> Workload:
    layout = _rng(name, LAYOUT_SEED)
    g = _rng(name, seed)
    source = noise_field(layout, g, dims)
    target = noise_field(layout, g, dims)
    paths = {
        "source": os.path.join(work, "source.raw"),
        "target": os.path.join(work, "target.raw"),
    }
    write_grid(paths["source"], source, POLAR_REGISTRATION)
    write_grid(paths["target"], target, POLAR_REGISTRATION)
    if with_mask:
        # Anomaly bits independent of the values: about half the cells.
        paths["mask"] = os.path.join(work, "anomaly.raw")
        write_grid(paths["mask"], (g.random(dims) < 0.5).astype(np.float64), POLAR_REGISTRATION)
    out_dir = os.path.join(work, "out")
    doc = {**paths, **config, "seed": int(seed)}
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    n_pairs = len(BANDS) ** 2 if config.get("sweep_bands") else 1
    return Workload(
        name=name,
        mode="pipeline",
        argv=["pipeline", "--config", cfg_path, "--out-dir", out_dir],
        output=out_dir,
        ops_per_round=n_pairs,
        replicates=int(config["m"]),
        params={"config": doc, "registration": POLAR_REGISTRATION},
    )


def null_dense(seed: int, work: str) -> Workload:
    """Standard rule, one high/high pairing of two independent noise fields."""
    config = {
        "variant": "standard",
        "band_source": "high",
        "band_target": "high",
        "dmax": 3.0,
        "max_len": 6,
        "m": 999,
        "alpha": 0.05,
    }
    return _pipeline("null_dense", seed, work, (21, 91), config, with_mask=False)


def sweep_cmad(seed: int, work: str) -> Workload:
    """cmad rule with an anomaly mask, all nine band pairings, few replicates."""
    config = {
        "variant": "cmad",
        "sweep_bands": True,
        "dmax": 2.5,
        "max_len": 5,
        "m": 19,
        "alpha": 0.1,
    }
    return _pipeline("sweep_cmad", seed, work, (31, 121), config, with_mask=True)


# aar geometry: corridor centre rows, corridor width and length in cells.
AAR_DIMS = (120, 720)
CORRIDOR_ROWS = (20, 60, 100)
CORRIDOR_WIDTH = 3
CORRIDOR_COLS = (60, 560)
N_SCATTERED = 300
N_NEAR_ORIGINS = 24


def aar_corridors(seed: int, work: str) -> Workload:
    """Point field with three long corridors plus scattered isolated points.

    Background values are uniform on [0, 1); elevated points carry values
    in [0.5, 1.5), so about half the pool reaches the elevation threshold
    and null exceedance counts are not all zero. The station and most
    origins lie on the first corridor; two origins lie on other corridors
    (retained components without a path to the station). Every origin is
    given as a lat/lon jittered by less than half a cell, so it must snap.
    """
    layout = _rng("aar_corridors", LAYOUT_SEED)
    g = _rng("aar_corridors", seed)
    rows, cols = AAR_DIMS
    mask = np.zeros((rows, cols))
    c0, c1 = CORRIDOR_COLS
    centre_rows = []
    for base in CORRIDOR_ROWS:
        phase = layout.uniform(0, 2 * np.pi)
        cc = np.arange(c0, c1)
        centre = base + np.round(4 * np.sin(2 * np.pi * cc / 180.0 + phase)).astype(int)
        centre_rows.append(dict(zip(cc.tolist(), centre.tolist())))
        for c, r in zip(cc, centre):
            mask[r - CORRIDOR_WIDTH // 2 : r + CORRIDOR_WIDTH // 2 + 1, c] = 1
    # Scattered points at least 11 rows (over 300 km) from any corridor cell,
    # so they never join a corridor component.
    far = np.ones((rows, cols), dtype=bool)
    for base in CORRIDOR_ROWS:
        far[max(0, base - 16) : base + 17, :] = False
    far_cells = np.argwhere(far)
    pick = far_cells[layout.choice(len(far_cells), size=N_SCATTERED, replace=False)]
    mask[pick[:, 0], pick[:, 1]] = 1
    elevated = mask != 0
    values = g.random((rows, cols))
    values[elevated] = 0.5 + g.random(int(elevated.sum()))

    reg = AAR_REGISTRATION

    def jittered(r: int, c: int) -> list[float]:
        lat = reg["lat0"] + r * reg["dlat"] + g.uniform(-0.06, 0.06)
        lon = reg["lon0"] + c * reg["dlon"] + g.uniform(-0.06, 0.06)
        return [round(lat, 6), round(lon, 6)]

    first = centre_rows[0]
    st_col = int(layout.integers(c0 + 100, c1 - 100))
    station = jittered(first[st_col], st_col)
    origins = []
    offsets = [d for d in range(-6, 7) if abs(d) >= 2]
    for k in range(N_NEAR_ORIGINS):
        d = offsets[k % len(offsets)]
        col = st_col + d
        row = first[col] + k // len(offsets) - 1  # the corridor's three rows
        origins.append(jittered(row, col))
    for other in centre_rows[1:]:
        col = int(layout.integers(c0 + 10, c1 - 10))
        origins.append(jittered(other[col], col))

    paths = {"values": os.path.join(work, "values.raw"), "mask": os.path.join(work, "elevated.raw")}
    write_grid(paths["values"], values, reg)
    write_grid(paths["mask"], mask, reg)
    origins_path = os.path.join(work, "origins.json")
    with open(origins_path, "w") as fh:
        json.dump({"origins": origins}, fh)
    report = os.path.join(work, "aar_report.json")
    params = {
        "max_edge_km": 250.0,
        "min_extent_km": 2000.0,
        "max_len": 6,
        "m": 199,
        "alpha": 0.05,
        "snap_km": 150.0,
        "station": station,
        "origins": origins,
        "values": paths["values"],
        "mask": paths["mask"],
    }
    argv = [
        "aar",
        "--values", paths["values"],
        "--mask", paths["mask"],
        "--origins", origins_path,
        "--station", f"{station[0]},{station[1]}",
        "--max-edge-km", str(params["max_edge_km"]),
        "--min-extent-km", str(params["min_extent_km"]),
        "--max-len", str(params["max_len"]),
        "--m", str(params["m"]),
        "--alpha", str(params["alpha"]),
        "--snap-km", str(params["snap_km"]),
        "--seed", str(seed),
        "-o", report,
    ]
    return Workload(
        name="aar_corridors",
        mode="aar",
        argv=argv,
        output=report,
        ops_per_round=len(origins),
        replicates=params["m"],
        params=params,
    )


WORKLOADS = {"null_dense": null_dense, "sweep_cmad": sweep_cmad, "aar_corridors": aar_corridors}


def prepare(name: str, seed: int, work: str) -> Workload:
    os.makedirs(work, exist_ok=True)
    # numpy seeds and the CLI's --seed must be non-negative.
    return WORKLOADS[name](int(seed) % 2**32, work)
