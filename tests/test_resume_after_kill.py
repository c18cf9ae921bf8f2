"""A `train` process killed with SIGKILL, then resumed, writes the bytes of an
uninterrupted run.

Each run is its own interpreter, started one at a time. A kill point is a
hook the child installs before `main` runs: it sends the child SIGKILL
itself, so nothing after that point (no `finally`, no flush) runs.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

# The child: hooks from the JSON in argv[1], then the CLI on the rest of argv.
# metrics.csv is line-buffered, so every row is on disk once it is written.
CHILD = """
import builtins, json, os, signal, sys
hooks = json.loads(sys.argv[1])
import blockflow.trainer as trainer
from blockflow.cli import main

def die():
    os.kill(os.getpid(), signal.SIGKILL)

if "replace" in hooks:  # the n-th replace of a file named so, 1-based
    name, nth = hooks["replace"]
    seen = []
    real_replace = os.replace
    def replace(src, dst):
        if os.path.basename(dst) == name:
            seen.append(dst)
        if len(seen) == nth:
            die()
        real_replace(src, dst)
    os.replace = replace

def line_buffered(*args, **kw):
    fh = builtins.open(*args, buffering=1, **kw)
    if "episode" in hooks:  # as the row of this episode is written, before it reaches the file
        real_write = fh.write
        def write(text):
            if text.startswith(f"{hooks['episode']},"):
                die()
            return real_write(text)
        fh.write = write
    return fh
trainer.open = line_buffered
sys.exit(main(sys.argv[2:]))
"""


def _train(cfg: Path, out: Path, hooks: dict | None = None, resume: bool = False) -> int:
    argv = ["train", "--config", str(cfg), "--out", str(out)]
    if resume:
        argv += ["--resume", str(out / "checkpoint.json")]
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(hooks or {}), *argv],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode in (0, -signal.SIGKILL), child.stderr
    return child.returncode


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A 48-episode bridge run, batch 8, checkpointed every 16 episodes."""
    tmp = tmp_path_factory.mktemp("kill")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps({
        "schema": "blockflow-run/1",
        "topology": str(FIXTURES / "topo_bridge.json"),
        "vocabulary": str(FIXTURES / "vocab_bridge.csv"),
        "model": {"embed_dim": 8, "hidden_dim": 12, "init_seed": 7},
        "reward": {"cutoff": 2500.0, "surrogate_scale": 1000.0},
        "train": {"learning_rate_model": 5e-3, "learning_rate_logz": 5e-2,
                  "max_episodes": 48, "batch_size": 8, "stop_window": 24,
                  "stop_threshold": 0.0, "smooth_window": 8, "checkpoint_every": 16,
                  "seed": 0},
    }))
    out = tmp / "full"
    assert _train(cfg, out) == 0
    return cfg, {name: (out / name).read_bytes() for name in ("metrics.csv", "checkpoint.json")}


def _metrics_rows(out: Path) -> int:
    return (out / "metrics.csv").read_bytes().count(b"\n") - 1


# Each case: the hooks of the killed run, the metrics rows it leaves, and
# the temporary files it leaves.
KILLS = {
    # the save at episode 32 dies with its temporary file written: the
    # checkpoint stays at episode 16 while the rows reach episode 32
    "in save_checkpoint before os.replace": ({"replace": ["checkpoint.json", 2]}, 32,
                                             ["checkpoint.json.tmp"]),
    # rows 17..20 of the batch 17..24 are on disk, the checkpoint is at 16
    "mid-batch": ({"episode": 21}, 20, []),
}


@pytest.mark.parametrize("hooks, rows, leftovers", KILLS.values(), ids=KILLS.keys())
def test_killed_run_resumes_to_the_uninterrupted_bytes(uninterrupted, hooks, rows, leftovers,
                                                       tmp_path):
    cfg, expected = uninterrupted
    out = tmp_path / "run"
    assert _train(cfg, out, hooks) == -signal.SIGKILL
    assert _metrics_rows(out) == rows
    assert sorted(p.name for p in out.glob("*.tmp")) == leftovers
    assert _train(cfg, out, resume=True) == 0
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


def test_run_killed_while_trimming_metrics_on_resume_resumes_again(uninterrupted, tmp_path):
    cfg, expected = uninterrupted
    out = tmp_path / "run"
    assert _train(cfg, out, {"episode": 21}) == -signal.SIGKILL
    # the trim has written the kept rows and dies before they replace metrics.csv
    assert _train(cfg, out, {"replace": ["metrics.csv", 1]}, resume=True) == -signal.SIGKILL
    assert _metrics_rows(out) == 20
    assert (out / "metrics.csv.tmp").exists()
    assert _train(cfg, out, resume=True) == 0
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name
