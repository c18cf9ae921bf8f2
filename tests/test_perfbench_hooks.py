"""Smoke test of what the benchmark under perfbench/ uses of the package.

The benchmark builds its inputs, checks command outputs and clocks layers
through the package's own functions and names, so a refactor can break it
without breaking any other test. Its modules are imported from perfbench/,
with that directory first on the path as the harness has it, and are not
changed.
"""

import importlib
import inspect
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import blockflow
from blockflow import RewardModel, exact_flows, load_checkpoint, restore_model, reward, surrogate_gsa
from blockflow.cli import load_run_config, main
from conftest import CONFIGS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GRID = CONFIGS / "train_grid.json"


@pytest.fixture()
def perfbench(monkeypatch):
    """Import a perfbench module by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_grid_checkpoint_input_restores(perfbench, tmp_path):
    path = tmp_path / "grid.json"
    perfbench("inputs").grid_checkpoint(path, seed=3)
    run = load_run_config(GRID)
    ckpt = load_checkpoint(path)
    assert ckpt.env_hash == run.env.env_hash
    assert restore_model(ckpt).config == run.model_config


def test_dataset_check_accepts_a_sample(perfbench, tmp_path):
    ckpt, out = tmp_path / "grid.json", tmp_path / "sample"
    perfbench("inputs").grid_checkpoint(ckpt, seed=3)
    assert main(["sample", "--config", str(GRID), "--checkpoint", str(ckpt), "-n", "200",
                 "--out", str(out)]) == 0
    run = load_run_config(GRID)
    counts = perfbench("checks").dataset_csv(out / "dataset.csv", 200, run.env, run.reward_spec)
    assert sum(counts.values()) == 200


def test_terminal_l1_reads_the_exact_flows_of_the_bridge(perfbench):
    # pipeline_bridge scores its pooled draws against exact_flows' log Z* and R/Z
    run = load_run_config(CONFIGS / "train_bridge.json")
    flows = exact_flows(run.env, RewardModel(run.reward_spec, run.env))
    assert type(flows.log_z) is float
    # the independent sum: every terminal spelled out by its records, scored one at a time
    records = [f"bfx:{a},{b},{c}" for a in ("N1", "N2", "N3") for b in ("N4", "N5") for c in ("E1", "E2")]
    terminals = [run.env.parse_assembly_record(record) for record in records]
    rewards = [max(reward(run.reward_spec, surrogate_gsa(run.env.vocabulary, seq,
                                                         run.reward_spec.surrogate_scale)),
                   run.reward_spec.reward_floor) for seq in terminals]
    counts = {terminals[0]: 5, terminals[7]: 2, terminals[11]: 1}
    expected = sum(abs(counts.get(seq, 0) / 8 - r / sum(rewards)) for seq, r in zip(terminals, rewards))
    l1 = perfbench("checks").terminal_l1(counts, flows.terminal_probs)
    assert l1 == pytest.approx(expected, rel=1e-12)
    assert flows.log_z == pytest.approx(math.log(sum(rewards)), rel=1e-12)
    with pytest.raises(perfbench("checks").CheckFailed, match="outside the enumeration"):
        perfbench("checks").terminal_l1({(0, 3, 4): 1}, flows.terminal_probs)


def _package_names() -> dict[tuple[str, ...], object]:
    """Every name bound in the package's modules and in the classes they define."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "blockflow" or module_name.startswith("blockflow.")):
            continue
        for attr, value in vars(module).items():
            names[module_name, attr] = value
            if inspect.isclass(value) and value.__module__ == module_name:
                for class_attr, class_value in vars(value).items():
                    names[module_name, attr, class_attr] = class_value
    return names


def test_layer_clock_counts_a_bridge_train_and_uninstalls(perfbench, tmp_path):
    # the clock wraps the modules loaded when it installs, and the package
    # loads them on first use; the benchmark's untraced pass loads them first
    for module in pkgutil.iter_modules(blockflow.__path__):
        importlib.import_module(f"blockflow.{module.name}")
    clock = perfbench("layers").LayerClock(blockflow)
    before = _package_names()
    clock.install()
    try:
        step = ("blockflow.model", "FlowModel", "step")
        assert _package_names()[step] is not before[step]  # the clock wraps what it counts
        with clock:
            assert sys.modules["blockflow.cli"].main(
                ["train", "--config", str(CONFIGS / "train_bridge.json"),
                 "--max-episodes", "64", "--out", str(tmp_path / "run")]) == 0
    finally:
        clock.uninstall()
    metrics = {name: value for name, (value, _) in clock.metrics(1).items()}
    assert metrics["model.step_calls"] > 0
    assert metrics["autodiff.self_s"] > 0
    assert metrics["reward.evaluations"] > 0
    after = _package_names()
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []
