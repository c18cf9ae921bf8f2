import csv
import filecmp
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockflow import Adam, FlowModel, RewardModel
from blockflow.checkpoint import save_checkpoint
from blockflow.cli import load_run_config, main
from blockflow.files import write_table
from conftest import (CONFIGS, FIXTURES, file_sha256, reference_flow_rows, reference_flows,
                      stub_adapter_command)


def run_config(tmp_path, train_overrides=None, reward_overrides=None):
    """A self-contained run config pointing at the bridge fixtures."""
    doc = {
        "schema": "blockflow-run/1",
        "topology": str(FIXTURES / "topo_bridge.json"),
        "vocabulary": str(FIXTURES / "vocab_bridge.csv"),
        "model": {"embed_dim": 8, "hidden_dim": 12, "init_seed": 7},
        "reward": {"cutoff": 2500.0, "surrogate_scale": 1000.0},
        "train": {"learning_rate_model": 5e-3, "learning_rate_logz": 5e-2,
                  "max_episodes": 48, "batch_size": 8, "stop_window": 24,
                  "stop_threshold": 1e-12, "smooth_window": 8, "seed": 0},
    }
    if train_overrides:
        doc["train"].update(train_overrides)
    if reward_overrides:
        doc["reward"].update(reward_overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "run1"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    printed, warned = capsys.readouterr()
    assert warned == ""  # no evaluation failed
    assert "episodes=48" in printed
    assert "best_record=bfx:" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "run_manifest.json").exists()
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["episode", "loss", "smoothedLoss", "logZ", "reward", "bestReward"]
    assert len(rows) == 49


def test_train_reports_failed_evaluations_on_stderr(tmp_path, capsys):
    failing = [sys.executable, "-c", "import sys; sys.stderr.write('no surface today'); sys.exit(1)"]
    cfg = run_config(tmp_path, train_overrides={"max_episodes": 32},
                     reward_overrides={"evaluator": "external", "adapter": {"command": failing}})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    printed, warned = capsys.readouterr()
    assert warned.splitlines() == ["warning: 32 episodes scored by a failed evaluation; "
                                   "the first: adapter exit code 1: no surface today"]
    assert "episodes=32" in printed and "warning" not in printed


def test_train_reruns_byte_identical(tmp_path):
    cfg = run_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert filecmp.cmp(out_a / "metrics.csv", out_b / "metrics.csv", shallow=False)
    assert filecmp.cmp(out_a / "checkpoint.json", out_b / "checkpoint.json", shallow=False)


def test_train_flag_overrides(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--max-episodes", "16", "--seed", "3"]) == 0
    assert "episodes=16" in capsys.readouterr().out
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["max_episodes"] == 16
    assert manifest["config"]["seed"] == 3


@pytest.mark.parametrize("argv", [
    ["amd", "--cif-dir", "cifs", "--workers", "2"],
    ["amd", "--cif-dir", "cifs", "--seed", "2"],
    ["flows", "--config", "run.json", "--workers", "2"],
    ["flows", "--config", "run.json", "--seed", "2"],
    ["regress", "--data", "xy.csv", "--workers", "2"],
    ["baseline", "--config", "run.json", "--checkpoint", "c.json", "--workers", "2"],
    ["train", "--config", "run.json", "--workers", "2"],
    ["train", "--config", "run.json", "--batch-size", "4"],
    ["train", "--config", "run.json", "--stop-window", "8"],
    ["train", "--config", "run.json", "--smooth-window", "8"],
    ["train", "--config", "run.json", "--epsilon", "0.1"],
    ["sample", "--config", "run.json", "--checkpoint", "c.json", "-n", "5", "--workers", "2"],
])
def test_flags_a_command_does_not_read_are_refused(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SAMPLE_ARGV = ["sample", "--config", "run.json", "--checkpoint", "c.json", "-n", "5"]


@pytest.mark.parametrize("argv, message", [
    (SAMPLE_ARGV + ["--seed", "-1"], "must be >= 0"),
    (["baseline", "--config", "run.json", "--checkpoint", "c.json", "--seed", "-1"], "must be >= 0"),
    (["regress", "--data", "xy.csv", "--seed", "-2"], "must be >= 0"),
    (["train", "--config", "run.json", "--seed", "-1"], "must be >= 0"),
    (["amd", "--cif-dir", "cifs", "-k", "0"], "must be >= 1"),
    (["amd", "--cif-dir", "cifs", "-k", "-4"], "must be >= 1"),
    (["flows", "--config", "run.json", "--bound", "0"], "must be >= 1"),
    (["flows", "--config", "run.json", "--bound", "-1"], "must be >= 1"),
    (["regress", "--data", "xy.csv", "--folds", "1"], "must be >= 2"),
    (["regress", "--data", "xy.csv", "--folds", "ten"], "invalid integer value"),
    (["regress", "--data", "xy.csv", "--rounds", "0"], "must be >= 1"),
    (["baseline", "--config", "run.json", "--checkpoint", "c.json", "-n", "0"], "must be >= 1"),
    (SAMPLE_ARGV[:-2] + ["-n", "-1"], "must be >= 0"),
])
def test_numbers_out_of_range_are_refused_at_parsing(argv, message, tmp_path, capsys):
    # refused before the command runs, so no manifest (nor --out) is written
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_missing_topology_exits_2(tmp_path, capsys):
    doc = json.loads(run_config(tmp_path).read_text())
    doc["topology"] = str(tmp_path / "nope.json")
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_bad_schema_exits_2(tmp_path):
    doc = json.loads(run_config(tmp_path).read_text())
    doc["schema"] = "blockflow-run/9"
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_train_unknown_key_exits_2(tmp_path, capsys):
    doc = json.loads(run_config(tmp_path).read_text())
    doc["train"]["learning_rate"] = 1.0
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "learning_rate" in capsys.readouterr().err


# the bridge config's reward block, scored by an external evaluator
EXTERNAL = {"cutoff": 2500.0, "surrogate_scale": 1000.0, "evaluator": "external"}


@pytest.mark.parametrize("key, value, named", [
    ("model.init_seed", -1, "model.init_seed"),
    ("model.init_seed", "7", "model.init_seed"),
    ("model.hidden_dim", "32", "model.hidden_dim"),
    ("model.embed_dim", 8.0, "model.embed_dim"),
    ("train.batch_size", 2.5, "train.batch_size"),
    ("train.batch_size", 0, "batch_size"),
    ("train.seed", True, "train.seed"),
    ("train.learning_rate_model", "fast", "train.learning_rate_model"),
    # json reads NaN and Infinity literals, and NaN passes `rate <= 0` and `threshold < 0`
    ("train.learning_rate_model", math.nan, "learning rates must be finite and positive, got nan"),
    ("train.learning_rate_logz", math.nan, "learning rates must be finite and positive, got nan"),
    ("train.learning_rate_model", math.inf, "learning rates must be finite and positive, got inf"),
    ("train.stop_threshold", math.nan, "stop threshold must be finite and non-negative"),
    # a JSON integer too large for a float
    pytest.param("train.learning_rate_model", 10**400, "train.learning_rate_model", id="train.learning_rate_model-10**400"),
    pytest.param("train.stop_threshold", 10**400, "train.stop_threshold", id="train.stop_threshold-10**400"),
    pytest.param("reward.cutoff", 10**400, "reward.cutoff", id="reward.cutoff-10**400"),
    ("reward.cutoff", math.inf, "reward cutoff must be finite and positive, got inf"),
    ("reward.surrogate_scale", math.inf, "surrogate scale must be finite and positive, got inf"),
    ("reward.cutoff", None, "reward.cutoff"),
    ("reward.adapter", {"command": "python3"}, "reward.adapter.command"),
    ("reward.adapter", {}, "command"),
    # the adapter runs its command as given: a flag it needs goes in the command
    ("reward.adapter", {"command": ["python3"], "sample_count": 1.5},
     "unknown keys ['sample_count']"),
    # an adapter that the surrogate evaluator would never run
    ("reward.adapter", {"command": ["/bin/false"]}, "evaluator"),
    ("reward", {**EXTERNAL, "adapter": {"command": ["/bin/false"], "timeout_s": math.inf}},
     "adapter timeout must be finite and positive, got inf"),
    ("reward", {**EXTERNAL, "adapter": {"command": ["/bin/false"], "probe_radius": math.nan}},
     "unknown keys ['probe_radius']"),
    ("reward", {**EXTERNAL, "adapter": {"command": ["/bin/false"], "probe_radius": -1.0}},
     "unknown keys ['probe_radius']"),
    ("reward", {**EXTERNAL, "adapter": {"command": ["/bin/false"], "sample_count": -5}},
     "unknown keys ['sample_count']"),
    ("train", 5, "train"),
    ("vocabulary", 5, "vocabulary"),
    ("edges_enabled", "yes", "edges_enabled"),
    # a misspelled block would otherwise train on the default settings
    ("trian", {"max_episodes": 8}, "unknown keys ['trian']"),
])
def test_bad_run_config_values_exit_2_and_name_the_key(key, value, named, tmp_path, capsys):
    doc = json.loads(run_config(tmp_path).read_text())
    *blocks, last = key.split(".")
    owner = doc
    for block in blocks:
        owner = owner[block]
    owner[last] = value
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "sample"])
@pytest.mark.parametrize("which", ["config", "topology", "vocabulary"])
def test_a_file_that_is_not_utf8_exits_2_and_names_it(which, command, tmp_path, capsys):
    cfg = broken = run_config(tmp_path)
    if which != "config":  # a copy of the fixture, named by the config
        doc = json.loads(cfg.read_text())
        broken = tmp_path / Path(doc[which]).name
        broken.write_bytes(Path(doc[which]).read_bytes())
        doc[which] = str(broken)
        cfg.write_text(json.dumps(doc))
    broken.write_bytes(broken.read_bytes() + b"\xe9\n")  # a Latin-1 byte, not UTF-8
    argv = {"train": ["train"], "sample": ["sample", "--checkpoint", "c.json", "-n", "5"]}
    assert main(argv[command] + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{broken}: cannot read:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = run_config(tmp)
    out = tmp / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out / "checkpoint.json"


def test_sample_dataset_counts(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    out = tmp_path / "s"
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "-n", "50", "--seed", "1", "--out", str(out)]) == 0
    assert "drawn=50" in capsys.readouterr().out
    rows = read_csv(out / "dataset.csv")
    assert rows[0][0] == "assembly_record"
    assert sum(int(r[3]) for r in rows[1:]) == 50
    manifest = json.loads((out / "sample_manifest.json").read_text())
    assert manifest["n"] == 50
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    assert manifest["checkpoint_checksum"] == header["checksum"]
    assert sorted(p.name for p in out.iterdir()) == ["dataset.csv", "sample_manifest.json"]


def test_sample_zero_draws(trained_run, tmp_path):
    cfg, ckpt = trained_run
    out = tmp_path / "s0"
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "-n", "0", "--out", str(out)]) == 0
    assert read_csv(out / "dataset.csv") == [
        ["assembly_record", "gsa_m2_per_g", "reward", "sample_count", "first_seen_episode"]]


def test_sample_corrupted_checkpoint_exits_2(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    mangled = tmp_path / "mangled.json"
    line, _, body = ckpt.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["episode"] += 1
    mangled.write_bytes(json.dumps(header).encode() + b"\n" + body)
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(mangled),
                 "-n", "5", "--out", str(tmp_path / "o")]) == 2
    assert "corrupted" in capsys.readouterr().err


def test_sample_env_mismatch_exits_2(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    doc = json.loads(cfg.read_text())
    doc["topology"] = str(FIXTURES / "topo_single.json")
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(doc))
    assert main(["sample", "--config", str(other_cfg), "--checkpoint", str(ckpt),
                 "-n", "5", "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint was produced for a different topology or vocabulary" in capsys.readouterr().err


def cif_text(a, atoms):
    lines = [
        "data_x",
        f"_cell_length_a {a}",
        f"_cell_length_b {a}",
        f"_cell_length_c {a}",
        "_cell_angle_alpha 90",
        "_cell_angle_beta 90",
        "_cell_angle_gamma 90",
        "_symmetry_space_group_name_H-M 'P 1'",
        "loop_",
        "_atom_site_label",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    for i, (x, y, z) in enumerate(atoms):
        lines.append(f"A{i} {x} {y} {z}")
    return "\n".join(lines) + "\n"


@pytest.fixture()
def cif_dir(tmp_path):
    d = tmp_path / "cifs"
    d.mkdir()
    (d / "a_small.cif").write_text(cif_text(3.0, [(0, 0, 0)]))
    (d / "b_large.cif").write_text(cif_text(4.0, [(0, 0, 0)]))
    (d / "c_broken.cif").write_text("data_x\n_cell_length_a 3\nno atoms here\n")
    return d


def test_amd_command(cif_dir, tmp_path, capsys):
    out = tmp_path / "amd"
    assert main(["amd", "--cif-dir", str(cif_dir), "-k", "6", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "processed=2 skipped=1" in captured.out
    assert "c_broken.cif" in captured.err
    rows = read_csv(out / "amd.csv")
    assert rows[0] == ["file", "amd_1", "amd_2", "amd_3", "amd_4", "amd_5", "amd_6"]
    assert [r[0] for r in rows[1:]] == ["a_small.cif", "b_large.cif"]
    assert float(rows[1][1]) == pytest.approx(3.0, abs=1e-9)
    assert float(rows[2][1]) == pytest.approx(4.0, abs=1e-9)
    dmat = read_csv(out / "distance_matrix.csv")
    # 6 coordinates each differing by 1.0 -> Euclidean distance sqrt(6)
    assert float(dmat[1][2]) == pytest.approx(np.sqrt(6.0), abs=1e-9)


def test_amd_skips_a_file_whose_cell_does_not_close(cif_dir, tmp_path, capsys):
    flat = cif_text(3.0, [(0, 0, 0)])
    for angle, degrees in (("alpha", 30), ("beta", 30), ("gamma", 120)):
        flat = flat.replace(f"_cell_angle_{angle} 90", f"_cell_angle_{angle} {degrees}")
    (cif_dir / "d_flat.cif").write_text(flat)
    out = tmp_path / "amd"
    assert main(["amd", "--cif-dir", str(cif_dir), "-k", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "processed=2 skipped=2" in captured.out
    assert (f"warning: skipping {cif_dir / 'd_flat.cif'}: "
            "cell angles (30.0, 30.0, 120.0) do not close a 3D cell" in captured.err.splitlines())
    assert [r[0] for r in read_csv(out / "amd.csv")[1:]] == ["a_small.cif", "b_large.cif"]


def test_amd_names_each_skipped_file_once(cif_dir, tmp_path, capsys):
    # a read error names its file already; an error of amd() itself does not
    (cif_dir / "e_twice.cif").write_text(cif_text(3.0, [(0, 0, 0), (0, 0, 0)]))
    (cif_dir / "f_tiny.cif").write_text(cif_text(0.005, [(0, 0, 0)]))
    # a file that is not UTF-8, and a directory, are skipped like any unreadable CIF
    (cif_dir / "g_binary.cif").write_bytes(cif_text(3.0, [(0, 0, 0)]).encode() + b"\xff\n")
    (cif_dir / "h_folder.cif").mkdir()
    out = tmp_path / "amd"
    assert main(["amd", "--cif-dir", str(cif_dir), "-k", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "processed=2 skipped=5" in captured.out
    warnings = captured.err.splitlines()
    assert f"warning: skipping {cif_dir / 'e_twice.cif'}: motif contains coincident points" in warnings
    assert f"warning: skipping {cif_dir / 'f_tiny.cif'}: basis is singular (|det| <= 1e-6)" in warnings
    assert f"warning: skipping {cif_dir / 'h_folder.cif'}: cannot read: Is a directory" in warnings
    assert any(line.startswith(f"warning: skipping {cif_dir / 'g_binary.cif'}: cannot read: ")
               and "0xff" in line for line in warnings)
    assert [line.count(".cif") for line in warnings] == [1, 1, 1, 1, 1]
    assert [r[0] for r in read_csv(out / "amd.csv")[1:]] == ["a_small.cif", "b_large.cif"]


def test_amd_with_reference_dir(cif_dir, tmp_path):
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "r.cif").write_text(cif_text(3.0, [(0, 0, 0)]))
    out = tmp_path / "amd"
    assert main(["amd", "--cif-dir", str(cif_dir), "-k", "4",
                 "--reference-dir", str(refs), "--out", str(out)]) == 0
    rows = read_csv(out / "novelty.csv")
    assert rows[0] == ["file", "novelty"]
    by_name = {r[0]: float(r[1]) for r in rows[1:]}
    assert by_name["a_small.cif"] == pytest.approx(0.0, abs=1e-9)
    assert by_name["b_large.cif"] == pytest.approx(2.0, abs=1e-9)  # sqrt(4*1^2)


def test_amd_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "amd"
    assert main(["amd", "--cif-dir", str(empty), "-k", "3", "--out", str(out)]) == 0
    assert read_csv(out / "amd.csv") == [["file", "amd_1", "amd_2", "amd_3"]]


@pytest.mark.parametrize("refusal", ["resume_of_another_topology", "resume_of_no_file",
                                     "cif_dir", "reference_dir"])
def test_a_refused_input_leaves_no_out(refusal, trained_run, cif_dir, tmp_path, capsys):
    # a command makes --out with its manifest, once every input is accepted
    cfg, ckpt = trained_run
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(cfg.read_text()),
                                 "topology": str(FIXTURES / "topo_single.json")}))
    missing = tmp_path / "missing"
    argv, message = {
        "resume_of_another_topology": (["train", "--config", other, "--resume", ckpt],
                                       "checkpoint was produced for a different topology"),
        "resume_of_no_file": (["train", "--config", cfg, "--resume", missing],
                              f"cannot read checkpoint {missing}: "),
        "cif_dir": (["amd", "--cif-dir", missing], f"{missing} is not a directory"),
        "reference_dir": (["amd", "--cif-dir", cif_dir, "--reference-dir", missing],
                          f"{missing} is not a directory"),
    }[refusal]
    assert main([*map(str, argv), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "regress"])
def test_an_out_that_cannot_be_made_exits_2_in_one_line(command, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    write_seeded_xy(tmp_path / "xy.csv", 5, 20)
    argv, out, reason = {
        "train": (["train", "--config", str(run_config(tmp_path))], blocker, "File exists"),
        "regress": (["regress", "--data", str(tmp_path / "xy.csv")], blocker / "sub",
                    "Not a directory"),
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: cannot make the run directory: {reason}\n"
    assert blocker.read_bytes() == b""


def test_a_file_that_cannot_be_written_exits_1_in_one_line(tmp_path, capsys):
    # an OSError past the input checks is a runtime failure, not a traceback
    out = tmp_path / "o"
    (out / "metrics.csv").mkdir(parents=True)
    assert main(["train", "--config", str(run_config(tmp_path)), "--max-episodes", "16",
                 "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(out / "metrics.csv") in line


def test_regress_command(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gsa", "uptake"])
        for x in np.linspace(0, 10, 40):
            w.writerow([repr(float(x)), repr(float(2.0 * x + 1.0))])
    out = tmp_path / "reg"
    assert main(["regress", "--data", str(data), "--folds", "5",
                 "--rounds", "10", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "n=40" in printed
    assert "r2=1.0" in printed
    rows = read_csv(out / "regression.csv")
    assert rows[0][0] == "n"
    values = dict(zip(rows[0], rows[1]))
    assert float(values["slope"]) == pytest.approx(2.0, abs=1e-9)
    assert values["scheme"] == "kfold"


def test_regress_holdout_mode(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for x in np.linspace(0, 10, 30):
            w.writerow([repr(float(x)), repr(float(x * 0.5))])
    assert main(["regress", "--data", str(data), "--holdout",
                 "--rounds", "5", "--out", str(tmp_path / "o")]) == 0
    assert "cv[holdout]" in capsys.readouterr().out


@pytest.mark.parametrize("table, message", [
    ("x,y\n1.0\n", "{data}:2: expected 2 fields"),
    ("x,y\n1,2\n1,3\n1,5\n1,4\n", "x is constant"),
    ("x,y\n1,2\n2,3\n3,5\n", "10-fold split needs at least 10 points"),
])
def test_regress_bad_data_exits_2(tmp_path, capsys, table, message):
    # only the fits tell a degenerate table, so they run before the manifest
    data = tmp_path / "xy.csv"
    data.write_text(table)
    assert main(["regress", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    assert message.format(data=data) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("column", [0, 1])
def test_regress_refuses_a_non_finite_cell(tmp_path, capsys, cell, column):
    # float() reads these cells; a fit over them writes nan for every figure
    rows = [[float(i), 2.0 * i + 1.0] for i in range(10)]
    rows[6][column] = cell
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows))
    assert main(["regress", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    assert f"{data}:8: x and y must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_stop_threshold_flag_exits_2_before_any_file(tmp_path, capsys, value):
    # NaN passes a `threshold < 0` test, and would turn the stop rule off
    assert main(["train", "--config", str(run_config(tmp_path)), "--out", str(tmp_path / "o"),
                 "--stop-threshold", value]) == 2
    assert f"stop threshold must be finite and non-negative, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def write_seeded_cifs(directory, seed, count):
    """`count` cubic P1 cells with 1-3 atoms each, drawn from `seed`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directory.mkdir()
    for i in range(count):
        atoms = np.round(rng.uniform(0.0, 1.0, (int(rng.integers(1, 4)), 3)), 6).tolist()
        (directory / f"s{i}.cif").write_text(cif_text(round(float(rng.uniform(3.0, 6.0)), 6), atoms))


def write_seeded_xy(path, seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0.0, 10.0, n)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 1.5, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows(zip(x.tolist(), y.tolist()))


# Digests of the post-processing commands' outputs (run from the output's
# parent with relative paths, so the manifests are pinned too). The regress
# runs cover folds that divide n, folds that do not, and the holdout scheme.
POSTPROCESS_SHA256 = {
    "amd": {
        "amd.csv": "6337aca003f371f275989378c41acd8bd5b70797ed695454bb80079de073c41f",
        "amd_manifest.json": "228ebbb20627b55c7c9e8c4de6fb07e9c600c472a533d2947837dad179984e0a",
        "distance_matrix.csv": "ae3b1e30ab2b59eec437a513bb66256f0c6617b12c4044ebfbc7c5132c0cf3fc",
        "novelty.csv": "1b314c985af0916ed6f9001265345f4fc8a25531bee94a95e26d9b0ccded06f7",
        "stdout.txt": "630b1a02807a1846dd970e2f66908a41692b7403b2a2ae1cf35bca7208edf049"},
    "regress_even": {
        "regress_manifest.json": "80d75410773b4d858193ef51fc95c12e3823805ac9989473be3b79609b04de9f",
        "regression.csv": "bd5f27849890615bf0f5940e2d5ef2fae6dc6fe40eda29701ba133c9421682b6",
        "stdout.txt": "655ece6c754ecb100922ca0ef36371bcf4a25551111d6aa9ea1556c89aa1e873"},
    "regress_uneven": {
        "regress_manifest.json": "a87242d6ba7ef3629eddbcc5a62256a7af3333861a6de5a406f37587069a791a",
        "regression.csv": "8c1be2eb592b4d4d9f67bce1acae8e061c41e59d71b821fc8f36615bdadbe94e",
        "stdout.txt": "cfa0de449afc41b697215216a029dd89d79006465e44ce18836a16c52b8aa4a5"},
    "regress_holdout": {
        "regress_manifest.json": "986b6f3ddefe929161674dfc5d8946ebae094a4078d23f68a000b7639587ba23",
        "regression.csv": "ba63e9ec290aaa8838b0a58894930551a35b3a6fa9f8da9b7342551a4824b718",
        "stdout.txt": "8674a1963fdf7e27d49a908299349493aeabab36c0b7275c1edb0f5d8e3cd63e"},
}


def test_amd_and_regress_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_seeded_cifs(tmp_path / "cifs", 3, 6)
    write_seeded_cifs(tmp_path / "refs", 4, 3)
    write_seeded_xy(tmp_path / "xy200.csv", 5, 200)
    runs = {
        "amd": ["amd", "--cif-dir", "cifs", "-k", "5", "--reference-dir", "refs"],
        "regress_even": ["regress", "--data", "xy200.csv", "--folds", "10", "--seed", "3"],
        "regress_uneven": ["regress", "--data", "xy200.csv", "--folds", "7", "--seed", "3"],
        "regress_holdout": ["regress", "--data", "xy200.csv", "--holdout", "--seed", "3"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", name]) == 0
        (tmp_path / name / "stdout.txt").write_text(capsys.readouterr().out)
        digests = {f.name: file_sha256(f) for f in sorted((tmp_path / name).iterdir())}
        assert digests == POSTPROCESS_SHA256[name], name
    cells = [row[1:] for row in read_csv(tmp_path / "amd" / "distance_matrix.csv")[1:]]
    assert len(cells) == 6
    assert all(cells[i][j] == cells[j][i] for i in range(6) for j in range(6))


# Digests of every manifest the sampler's commands write (run from their
# parent with relative paths): a fresh and a resumed `train`, then `sample`,
# `baseline` and `regress` on their default seed, and `flows`.
MANIFEST_SHA256 = {
    "fresh/run_manifest.json":
        "0da6f31877673545bf7a2c6ad9c2c1bd9125072d28b6397a6ef14037270096a8",
    "resumed/run_manifest.json":
        "76eadcf83aa03608b3aded37a21152491454bcf9a635f5bc2ad0749a237549af",
    "sample/sample_manifest.json":
        "e5d944a00d3bd162b3b72a7a193bfbcfc1b2034ae03de9875c064c164d97bdc0",
    "baseline/baseline_manifest.json":
        "d889976193f5c6c63b7392a7527f1971bc45320c471b4001664ebac4f4b2e555",
    "regress/regress_manifest.json":
        "9587a203ba90940b096365e3b71071b17878110c7de61dc0ad18d64b7665affa",
    "flows/flows_manifest.json":
        "a27f8ea3821e8c5eece2759cadc5800b78820135c863fa689ca66a61682ba809",
}


def test_every_manifest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_config(tmp_path)
    write_seeded_xy(tmp_path / "xy.csv", 5, 40)
    runs = [
        ["train", "--config", "run.json", "--max-episodes", "16", "--out", "fresh"],
        ["train", "--config", "run.json", "--max-episodes", "32", "--out", "resumed",
         "--resume", "fresh/checkpoint.json"],
        ["sample", "--config", "run.json", "--checkpoint", "resumed/checkpoint.json",
         "-n", "20", "--out", "sample"],
        ["baseline", "--config", "run.json", "--checkpoint", "resumed/checkpoint.json",
         "-n", "20", "--out", "baseline"],
        ["regress", "--data", "xy.csv", "--folds", "4", "--rounds", "2", "--out", "regress"],
        ["flows", "--config", "run.json", "--out", "flows"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    assert {name: file_sha256(tmp_path / name) for name in MANIFEST_SHA256} == MANIFEST_SHA256


def test_baseline_command(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    out = tmp_path / "b"
    assert main(["baseline", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "-n", "500", "--seed", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trained_mean=" in printed and "uniform_mean=" in printed
    summary = read_csv(out / "baseline.csv")
    values = dict(zip(summary[0], summary[1]))
    assert int(values["n_samples"]) == 500
    assert float(values["trained_mean"]) > 0
    hist = read_csv(out / "baseline_hist.csv")
    assert hist[0] == ["bin_low", "bin_high", "trained_count", "uniform_count"]
    assert sum(int(r[2]) for r in hist[1:]) == 500
    assert sum(int(r[3]) for r in hist[1:]) == 500
    manifest = json.loads((out / "baseline_manifest.json").read_text())
    assert manifest["checkpoint_checksum"] == json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["checksum"]


# Digests recorded before sampling shared its prefix rows: the draws must not
# move. The sample digest is the one `sample --workers 1` wrote while the
# flag existed.
GRID_SAMPLE_SHA256 = {
    "sample": {
        "dataset.csv": "4ec1a169646fd526c40dea4e4370a0c9deaf090a25eada4c73f5ede20e7b68f5"},
    "baseline": {
        "baseline.csv": "4006f370470bfa0eabca962d6294b16bc4ae59769c8fd76ebc8b294c7b89a0eb",
        "baseline_hist.csv": "d726ca06c39a8c08a795579fd295a86b4cd47b32be77ade7b3a98e21fe275832"},
}


def test_grid_sample_and_baseline_bytes_are_pinned(tmp_path):
    config = CONFIGS / "train_grid.json"
    run = load_run_config(config)
    model = FlowModel.init(run.model_config, seed=11)
    optimizer = Adam(model.parameters(), lr=run.train_config.learning_rate_model)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, model, optimizer, np.random.Generator(np.random.PCG64(11)),
                    0, 0.0, [], run.env.env_hash, {})
    for command, digests in GRID_SAMPLE_SHA256.items():
        out = tmp_path / command
        assert main([command, "--config", str(config), "--checkpoint", str(ckpt),
                     "-n", "2000", "--seed", "5", "--out", str(out)]) == 0
        for name, digest in digests.items():
            assert file_sha256(out / name) == digest, (command, name)


# Digests of a short grid run under the backward that takes each weight's
# gradient as one product over the stacked slots: they pin its summation
# order, and so every byte of training, on this seed and config. The
# checkpoint digest is that of the blockflow-checkpoint/3 layout.
GRID_TRAIN_SHA256 = {
    "metrics.csv": "274ff45d91fdcc5d68676001f811ab7c880361bde63ccfa6e9b86e076ff75feb",
    "checkpoint.json": "f04c928ca41c1ace0cfb4b9337ea644a5b906db3b1945bcb6b12fb7cd35a7605",
}


def test_grid_training_bytes_are_pinned(tmp_path):
    # 64 grid episodes at batch 16, checkpointed every 32; a run resumed
    # from the 32-episode checkpoint must write the same bytes
    argv = ["train", "--config", str(CONFIGS / "train_grid.json"), "--seed", "41",
            "--stop-threshold", "0", "--checkpoint-every", "32"]
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(argv + ["--max-episodes", "64", "--out", str(full)]) == 0
    assert main(argv + ["--max-episodes", "32", "--out", str(part)]) == 0
    assert main(argv + ["--max-episodes", "64", "--out", str(part),
                        "--resume", str(part / "checkpoint.json")]) == 0
    for out in (full, part):
        for name, digest in GRID_TRAIN_SHA256.items():
            assert file_sha256(out / name) == digest, (out.name, name)


# Digests of the README quick-start bridge run, trained with the config's own
# seed to its stop rule. Its 100-episode smoothing window fills, so unlike the
# grid pin this one covers the smoothedLoss column.
BRIDGE_TRAIN_SHA256 = {
    "metrics.csv": "6e8a324252aced564ae85cbefa94b02004b37785971c70b9e235b0cc042ca8c1",
    "checkpoint.json": "f4a45f615a977b8cbdcaa4b5361c0aa192f267a3d4fcfdfd791c00e28ff56912",
}


def test_bridge_training_to_the_stop_rule_is_pinned(tmp_path, capsys):
    out = tmp_path / "bridge"
    assert main(["train", "--config", str(CONFIGS / "train_bridge.json"), "--out", str(out)]) == 0
    assert "episodes=3888 stopped_early=True" in capsys.readouterr().out
    for name, digest in BRIDGE_TRAIN_SHA256.items():
        assert file_sha256(out / name) == digest, name


FLOWS_BRIDGE_SHA256 = {
    "flows.csv": "29ab4270f697af1b07b4872a28354cfff277848a0f73d3794469e1add56e74d8",
    "terminal_probs.csv": "2e8acee3b8d8995ff171b95f2428f9e0718eb90a6138a180f20e94e2ecc5eb72",
}


def test_bridge_flows_are_pinned(tmp_path, capsys):
    out = tmp_path / "flows"
    assert main(["flows", "--config", str(CONFIGS / "train_bridge.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "terminals=12 log_z=5.749408893984552\n"
    for name, digest in FLOWS_BRIDGE_SHA256.items():
        assert file_sha256(out / name) == digest, name


@pytest.mark.parametrize("config", ["train_bridge.json", "train_grid.json"])
def test_flows_writes_the_bytes_of_the_reference_sums(tmp_path, capsys, config):
    # the reference: a dict of prefix sums, written sorted by depth, then token indices
    run = load_run_config(CONFIGS / config)
    reference = reference_flows(run.env, RewardModel(run.reward_spec, run.env))
    z = reference[()]
    probs = {seq: flow / z for seq, flow in reference.items() if len(seq) == run.env.n_slots}
    expected = tmp_path / "expected"
    expected.mkdir()
    write_table(expected / "flows.csv", ["depth", "prefix", "flow"],
                reference_flow_rows(run.env, reference))
    write_table(expected / "terminal_probs.csv", ["assembly_record", "probability"],
                zip(run.env.format_assembly_records(list(probs)), probs.values()))
    out = tmp_path / "flows"
    assert main(["flows", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"terminals={len(probs)} log_z={float(np.log(z))!r}\n"
    for name in ("flows.csv", "terminal_probs.csv"):
        assert filecmp.cmp(out / name, expected / name, shallow=False), name


def test_flows_command(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "f"
    assert main(["flows", "--config", str(cfg), "--out", str(out)]) == 0
    assert "terminals=12" in capsys.readouterr().out
    probs = read_csv(out / "terminal_probs.csv")
    assert probs[0] == ["assembly_record", "probability"]
    assert len(probs) == 13
    assert sum(float(r[1]) for r in probs[1:]) == pytest.approx(1.0, abs=1e-12)
    flows = read_csv(out / "flows.csv")
    assert flows[0] == ["depth", "prefix", "flow"]
    depths = [int(r[0]) for r in flows[1:]]
    assert depths == sorted(depths)
    # root flow (depth 0) equals Z
    root = [r for r in flows[1:] if r[0] == "0"]
    assert len(root) == 1


def test_flows_bound_exits_1(tmp_path):
    doc = {
        "schema": "blockflow-run/1",
        "topology": str(FIXTURES / "topo_grid.json"),
        "vocabulary": str(FIXTURES / "vocab_grid.csv"),
        "model": {"embed_dim": 8, "hidden_dim": 8},
        "reward": {"cutoff": 5000.0, "surrogate_scale": 1000.0},
        "train": {},
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    assert main(["flows", "--config", str(cfg), "--bound", "100",
                 "--out", str(tmp_path / "o")]) == 1
    # the inputs were accepted, so the manifest that made --out stays
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["flows_manifest.json"]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_shipped_demo_config_loads():
    # the repo's own config must stay in sync with the loader
    from blockflow.cli import load_run_config
    run = load_run_config(CONFIGS / "train_bridge.json")
    assert run.env.n_slots == 3
    assert run.env.count_terminals() == 12
    run_big = load_run_config(CONFIGS / "train_grid.json")
    assert run_big.env.count_terminals() == 10_000


@pytest.mark.parametrize("flags, overrides, named", [
    (["--stop-threshold", "0.5", "--seed", "5"], {}, ["stop_threshold", "seed"]),
    ([], {"reward_overrides": {"cutoff": 1000.0}}, ["reward.cutoff"]),
    ([], {"train_overrides": {"learning_rate_logz": 0.1}}, ["learning_rate_logz"]),
], ids=["train_block", "reward_block", "rates"])
def test_resume_refuses_config_drift(tmp_path, capsys, flags, overrides, named):
    # a resumed run's Adam takes its rates from the config, so the echo's
    # rates are the checkpoint's
    cfg = run_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-episodes", "16", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.json"
    before = (out / "metrics.csv").read_bytes()
    capsys.readouterr()
    drifted = cfg
    if overrides:
        (tmp_path / "drifted").mkdir()
        drifted = run_config(tmp_path / "drifted", **overrides)
    assert main(["train", "--config", str(drifted), "--resume", str(ckpt), *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert (out / "metrics.csv").read_bytes() == before
    # the run length and the checkpoint cadence may change on resume
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt), "--max-episodes", "32",
                 "--checkpoint-every", "8", "--out", str(out)]) == 0
    assert len(read_csv(out / "metrics.csv")) == 33


@pytest.mark.parametrize("garbage", [b"garbage,1,2,3,4,5\r\n", b"\xff\xfe,1,2,3,4,5\r\n"],
                         ids=["not-decimal", "not-utf8"])
@pytest.mark.parametrize("resume", [True, False], ids=["resume", "fresh"])
def test_a_metrics_row_whose_episode_is_not_an_integer_is_dropped(tmp_path, resume, garbage):
    cfg = run_config(tmp_path)
    full, out = tmp_path / "full", tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-episodes", "64", "--out", str(full)]) == 0
    assert main(["train", "--config", str(cfg), "--max-episodes", "32", "--out", str(out)]) == 0
    with open(out / "metrics.csv", "ab") as fh:
        fh.write(garbage)
    flags = ["--resume", str(out / "checkpoint.json")] if resume else []
    assert main(["train", "--config", str(cfg), "--max-episodes", "64", *flags,
                 "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale, with UTF-8 mode off, the locale's encoding is ASCII
    vocab, topo = tmp_path / "vocab.csv", tmp_path / "topo.json"
    vocab.write_text((FIXTURES / "vocab_bridge.csv").read_text().replace("N2,", "N2\u00e9,"),
                     encoding="utf-8")
    topo.write_text((FIXTURES / "topo_bridge.json").read_text().replace('"N2"', '"N2\u00e9"'),
                    encoding="utf-8")
    # the adapter exits 1 unless its record is UTF-8, and scores a record by its accents
    adapter = stub_adapter_command(
        "import sys; record = sys.stdin.buffer.read().decode('utf-8'); "
        "print(3000.0 * (1 + record.count('\\u00e9')))")
    cfg = run_config(tmp_path, reward_overrides={"evaluator": "external",
                                                 "adapter": {"command": adapter}})
    doc = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**doc, "vocabulary": str(vocab), "topology": str(topo)}))
    env = {**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
    for argv in (["train", "--max-episodes", "16", "--out", tmp_path / "run"],
                 ["sample", "--checkpoint", tmp_path / "run" / "checkpoint.json", "-n", "50",
                  "--out", tmp_path / "sample"],
                 ["flows", "--out", tmp_path / "flows"]):
        child = subprocess.run([sys.executable, "-m", "blockflow.cli", *map(str, argv),
                                "--config", str(cfg)], env=env, capture_output=True)
        assert (child.returncode, child.stderr) == (0, b""), child.stderr.decode(errors="replace")
    for table in ("run/metrics.csv", "sample/dataset.csv", "flows/flows.csv"):
        (tmp_path / table).read_bytes().decode("utf-8")
    probs = read_csv(tmp_path / "flows" / "terminal_probs.csv")[1:]
    accented = {float(p) for record, p in probs if "N2\u00e9" in record}
    assert accented and accented.isdisjoint(float(p) for record, p in probs if "N2" not in record)


# The child imports the package as a user would and reports every top-level
# module that appeared after its interpreter started (so not what site hooks
# load), skipping those with no import spec: the in-memory modules that
# numpy's compiled extensions create for themselves.
RUNTIME_PROBE = """
import importlib, pkgutil, sys
started = set(sys.modules)
import blockflow
for module in pkgutil.iter_modules(blockflow.__path__):  # the package loads them on first use
    importlib.import_module("blockflow." + module.name)
blockflow.FlowModel.init(blockflow.ModelConfig(vocab_size=3, embed_dim=2, hidden_dim=2))
allowed = set(sys.stdlib_module_names) | {"numpy", "blockflow"}
print(sorted({name.partition(".")[0] for name, module in sys.modules.items()
              if name not in started and getattr(module, "__spec__", None) is not None}
             - allowed))
"""


def test_runtime_needs_only_numpy_and_the_standard_library():
    # the README promises "Runtime dependency is numpy only"
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", RUNTIME_PROBE], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert child.stdout.strip() == "[]"


SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_json(code: str, *args) -> dict:
    """Run `code` in a fresh interpreter on the package source; its last stdout line is JSON."""
    child = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture()
def no_thread_vars(monkeypatch):
    """The children start with none of the BLAS thread variables set."""
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def test_import_blockflow_loads_no_numpy_and_sets_no_thread_variable(no_thread_vars):
    seen = _child_json(f"""
import json, os, sys
import blockflow
print(json.dumps({{"modules": sorted(m for m in sys.modules
                                    if m == "numpy" or m.startswith(("numpy.", "blockflow"))),
                  "env": [os.environ.get(name) for name in {BLAS_THREAD_VARS!r}]}}))
""")
    assert seen == {"modules": ["blockflow"], "env": [None, None, None]}


def test_reward_stays_the_function_after_its_module_loads():
    # the benchmark's import order: RewardModel and load_dataset load the
    # `blockflow.reward` submodule before `reward` is looked up
    assert _child_json("""
import json
from blockflow import RewardModel, load_dataset, reward, surrogate_gsa
from blockflow import RewardSpec
from blockflow.reward import AdapterConfig
print(json.dumps([reward(RewardSpec(cutoff=5000.0), 5000.0), AdapterConfig.__name__]))
""") == [1.0, "AdapterConfig"]


def test_every_exported_name_resolves():
    # a name left in the export table after its definition goes fails here
    import blockflow
    assert [name for name in blockflow.__all__ if not hasattr(blockflow, name)] == []


# Runs the CLI module as `python -m blockflow.cli` does and reports the exit
# code, the package modules the command loaded, which of the external
# evaluator's process and pool modules it loaded, and the thread variables as
# they stood when numpy was first imported.
CLI_PROBE = f"""
import json, os, runpy, sys
seen = {{}}
class NumpyWatch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "env" not in seen:
            seen["env"] = [os.environ.get(var) for var in {BLAS_THREAD_VARS!r}]
sys.meta_path.insert(0, NumpyWatch())
try:
    runpy.run_module("blockflow.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    seen["code"] = exc.code
seen["modules"] = sorted(m for m in sys.modules if m.startswith("blockflow."))
seen["process_modules"] = [m for m in ("subprocess", "concurrent.futures") if m in sys.modules]
print(json.dumps(seen))
"""


def _xy_csv(path: Path) -> Path:
    path.write_text("x,y\n" + "".join(f"{x},{2 * x + x % 3}\n" for x in range(12)))
    return path


@pytest.mark.parametrize("command, runs, absent", [
    ("amd", "crystal", {"trainer", "reward", "analysis", "checkpoint"}),
    ("regress", "analysis", {"trainer", "reward", "model", "checkpoint"}),
])
def test_cli_child_imports_only_what_its_command_runs(command, runs, absent, tmp_path,
                                                      no_thread_vars):
    args = {"amd": ["--cif-dir", FIXTURES / "cif", "-k", "4"],
            "regress": ["--data", _xy_csv(tmp_path / "xy.csv"), "--folds", "3"]}[command]
    seen = _child_json(CLI_PROBE, command, *args, "--out", tmp_path / "out")
    assert seen["code"] == 0
    assert f"blockflow.{runs}" in seen["modules"]
    assert {f"blockflow.{name}" for name in absent}.isdisjoint(seen["modules"]), seen["modules"]
    assert seen["env"] == ["1", "1", "1"]  # set before numpy loaded


def test_surrogate_sample_child_loads_no_process_machinery(trained_run, tmp_path):
    cfg, ckpt = trained_run
    seen = _child_json(CLI_PROBE, "sample", "--config", cfg, "--checkpoint", ckpt, "-n", "20",
                       "--out", tmp_path / "out")
    assert seen["code"] == 0
    assert "blockflow.reward" in seen["modules"]
    assert seen["process_modules"] == []


def test_cli_child_keeps_a_thread_count_the_user_set(tmp_path, monkeypatch, no_thread_vars):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    seen = _child_json(CLI_PROBE, "amd", "--cif-dir", FIXTURES / "cif", "-k", "4",
                       "--out", tmp_path / "out")
    assert seen["code"] == 0
    assert seen["env"] == ["3", "1", "1"]


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, last_line", [
    ("amd_demo.py", [], "full descriptors and distance matrix under {out}"),
    ("train_bridge_demo.py", ["--samples", "2000"], r"L1 distance over 2000 draws: \d\.\d\d\d\d"),
], ids=["amd_demo", "train_bridge_demo"])
def test_quick_start_demo_scripts_run(script, args, last_line, tmp_path):
    out = tmp_path / "out"
    child = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
                           capture_output=True, text=True, cwd=tmp_path,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert child.returncode == 0, child.stderr
    assert re.fullmatch(last_line.format(out=re.escape(str(out))), child.stdout.splitlines()[-1])
