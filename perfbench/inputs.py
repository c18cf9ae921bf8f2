"""Seeded benchmark inputs, built before any timed command runs.

The program under test only ever sees the files written here: a grid
checkpoint made with the model's own initialiser, P1 CIF files, an x,y
regression table and a run config that scores through the external
evaluator stand-in. The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from blockflow import Adam, FlowModel, cell_basis, save_checkpoint
from blockflow.cli import load_run_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIGS = ROOT / "configs"
FIXTURES = ROOT / "fixtures"
ADAPTER = BENCH_DIR / "adapter.py"

# Closest allowed approach of two points in a generated structure, in
# Angstrom. Far above the coincidence tolerance of the descriptor code.
MIN_SEPARATION = 1.0


def grid_checkpoint(path: Path, seed: int) -> None:
    """An untrained grid-sized checkpoint: init, fresh Adam, seeded RNG."""
    run = load_run_config(CONFIGS / "train_grid.json")
    tc = run.train_config
    model = FlowModel.init(run.model_config, seed=seed)
    optimizer = Adam(model.parameters(), lr=tc.learning_rate_model,
                     lr_overrides={"log_z": tc.learning_rate_logz})
    rng = np.random.Generator(np.random.PCG64(seed))
    save_checkpoint(path, model, optimizer, rng, 0, 0.0, [], run.env.env_hash, {})


def external_config(path: Path) -> None:
    """The grid config, scored by the adapter stand-in through a subprocess."""
    doc = json.loads((CONFIGS / "train_grid.json").read_text())
    for key in ("topology", "vocabulary"):
        doc[key] = str((CONFIGS / doc[key]).resolve())
    doc["reward"]["evaluator"] = "external"
    doc["reward"]["adapter"] = {"command": [
        sys.executable, "-S", "-I", str(ADAPTER), doc["vocabulary"],
        repr(float(doc["reward"]["surrogate_scale"]))]}
    path.write_text(json.dumps(doc, indent=1))


def _min_periodic_distance(frac: np.ndarray, basis: np.ndarray) -> float:
    """Smallest distance between distinct points over the 27 nearest cells."""
    offsets = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
                       dtype=np.float64)
    diff = frac[:, None, :] - frac[None, :, :]
    diff -= np.round(diff)
    vecs = (diff[:, :, None, :] + offsets[None, None, :, :]) @ basis
    dist = np.linalg.norm(vecs, axis=-1).min(axis=2)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def _random_structure(rng: np.random.Generator) -> tuple[tuple[float, ...], np.ndarray]:
    while True:
        lengths = rng.uniform(4.0, 8.0, size=3)
        angles = rng.uniform(80.0, 100.0, size=3)
        cell = tuple(float(v) for v in np.round(np.concatenate([lengths, angles]), 4))
        basis = cell_basis(*cell)
        heights = 1.0 / np.linalg.norm(np.linalg.inv(basis), axis=0)
        if heights.min() > 2.0 * MIN_SEPARATION:
            break
    points: list[np.ndarray] = []
    target = int(rng.integers(2, 9))
    while len(points) < target:
        cand = np.round(rng.random(3), 5)
        trial = np.array(points + [cand])
        if len(trial) == 1 or _min_periodic_distance(trial, basis) >= MIN_SEPARATION:
            points.append(cand)
    return cell, np.array(points)


def write_cifs(directory: Path, seed: int, count: int) -> list[str]:
    """`count` seeded P1 structures plus the simple-cubic fixture."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    names = []
    for i in range(count):
        cell, frac = _random_structure(rng)
        name = f"gen_{i:03d}.cif"
        lines = [f"data_gen_{i:03d}"]
        for tag, value in zip(("length_a", "length_b", "length_c",
                               "angle_alpha", "angle_beta", "angle_gamma"), cell):
            lines.append(f"_cell_{tag} {value!r}")
        lines += ["_symmetry_space_group_name_H-M 'P 1'", "loop_", "_atom_site_label",
                  "_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z"]
        lines += [f"X{j + 1} {x!r} {y!r} {z!r}" for j, (x, y, z) in enumerate(frac.tolist())]
        (directory / name).write_text("\n".join(lines) + "\n")
        names.append(name)
    shutil.copyfile(FIXTURES / "cif" / "cubic_po.cif", directory / "cubic_po.cif")
    return sorted(names + ["cubic_po.cif"])


def write_xy(path: Path, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A noisy line, written with full float precision."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0.0, 10.0, size=n)
    y = 2.5 * x + 1.0 + rng.normal(0.0, 1.0, size=n)
    rows = ["x,y"] + [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
    path.write_text("\n".join(rows) + "\n")
    return x, y


# Workload sizes. Each timed round runs one fixed-size command chain.
GRID_EPISODES = 640            # train_grid: 40 updates of 16 episodes
GRID_CHECKPOINT_EVERY = 320    # two periodic saves plus the final one
EXTERNAL_EPISODES = 96         # train_external: one adapter process per miss
SAMPLE_DRAWS = 8000            # sample_grid: draws per sample and per baseline
BRIDGE_POOLED_ROUNDS = 4       # pipeline_bridge: rounds whose draws are pooled for the L1 check
BRIDGE_MIN_ROUNDS = BRIDGE_POOLED_ROUNDS  # pipeline_bridge: every pooled round runs
BRIDGE_SAMPLE_DRAWS = 60000    # pipeline_bridge: draws per sample
BRIDGE_BASELINE_DRAWS = 30000  # pipeline_bridge: draws per baseline
CIF_COUNT = 300                # generated structures, plus the cubic fixture
AMD_K = 100                    # descriptor length (the CLI default)
XY_ROWS = 500                  # regression table rows
REGRESS_ROUNDS = 500           # repeated 10-fold cross-validation rounds

# pipeline_bridge quality limits, after training to the config's stop rule.
# The trained sampler measured logZ 0.057 nats from the exact log Z* and an L1
# of 0.015 between sampled terminal frequencies and R/Z (240,000 draws); the
# untrained model is 5.75 nats and 0.87 away.
BRIDGE_LOGZ_GAP_MAX = 0.5
BRIDGE_TERMINAL_L1_MAX = 0.1
