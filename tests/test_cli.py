import csv
import filecmp
import json

import numpy as np
import pytest

from blockflow.cli import main
from conftest import CONFIGS, FIXTURES


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
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "run1"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "episodes=48" in printed
    assert "best_record=bfx:" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "run_manifest.json").exists()
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["episode", "loss", "smoothedLoss", "logZ", "reward", "bestReward"]
    assert len(rows) == 49


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
])
def test_flags_a_command_does_not_read_are_refused(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sample_refuses_workers_below_one(workers, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--config", "run.json", "--checkpoint", "c.json", "-n", "5",
              "--workers", workers, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
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
    assert len(manifest["checkpoint_sha256"]) == 64
    sidecar = json.loads((out / "dataset.csv.manifest.json").read_text())
    assert sidecar["n"] == 50


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
    doc = json.loads(ckpt.read_text())
    doc["episode"] = doc["episode"] + 1
    mangled.write_text(json.dumps(doc))
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
    assert "does not match" in capsys.readouterr().err


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


def test_amd_missing_dir_exits_2(tmp_path):
    assert main(["amd", "--cif-dir", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 2


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


def test_regress_bad_data_exits_2(tmp_path):
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n1.0\n")
    assert main(["regress", "--data", str(data), "--out", str(tmp_path / "o")]) == 2


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


def test_resume_refuses_config_drift(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-episodes", "16", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.json"
    before = (out / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt), "--batch-size", "4",
                 "--seed", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "batch_size" in err and "seed" in err
    assert (out / "metrics.csv").read_bytes() == before
    # the run length and the checkpoint cadence may change on resume
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt), "--max-episodes", "32",
                 "--checkpoint-every", "8", "--out", str(out)]) == 0
    assert len(read_csv(out / "metrics.csv")) == 33
