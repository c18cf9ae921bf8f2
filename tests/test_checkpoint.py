import base64
import hashlib
import json
import shutil

import numpy as np
import pytest

from blockflow import (Adam, FlowModel, ModelConfig, load_checkpoint,
                       restore_model, restore_optimizer, restore_rng,
                       save_checkpoint)
from blockflow.checkpoint import CHECKPOINT_SCHEMA, atomic_write, file_sha256
from blockflow.cli import main
from blockflow.errors import ValidationError
from conftest import FIXTURES

CFG = ModelConfig(vocab_size=5, embed_dim=4, hidden_dim=6)


def _trained_pieces(seed=0, updates=3):
    """A model plus optimizer that have actually stepped, so every slot of
    state (m, v, step counter) carries non-trivial values."""
    model = FlowModel.init(CFG, seed=seed)
    opt = Adam(model.parameters(), lr=1e-2, lr_overrides={"log_z": 0.1})
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(updates):
        opt.step({name: rng.standard_normal(p.shape) if p.shape else np.float64(rng.standard_normal())
                  for name, p in model.parameters().items()})
    return model, opt, rng


def _save(tmp_path, model, opt, rng, **kw):
    path = tmp_path / "ckpt.json"
    defaults = dict(episode=12, best_reward=3.5, loss_tail=[1.0, 0.5, 0.25],
                    env_hash="e" * 64, config={"note": "x"})
    defaults.update(kw)
    save_checkpoint(path, model, opt, rng, **defaults)
    return path


def test_roundtrip_params_bit_exact(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    ckpt = load_checkpoint(path)
    restored = restore_model(ckpt)
    assert restored.config == CFG
    for name, p in model.parameters().items():
        assert np.array_equal(restored.parameters()[name], p), name
        assert restored.parameters()[name].dtype == np.float64


def test_roundtrip_optimizer_state(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    ckpt = load_checkpoint(path)
    restored_model = restore_model(ckpt)
    restored_opt = restore_optimizer(ckpt, restored_model)

    # stepping both with the same gradient must produce identical params
    g = {name: np.full(p.shape, 0.37) for name, p in model.parameters().items()}
    opt.step(g)
    restored_opt.step(g)
    for name in model.parameters():
        assert np.array_equal(model.parameters()[name], restored_model.parameters()[name]), name


def test_roundtrip_rng_stream_continues(tmp_path):
    model, opt, rng = _trained_pieces()
    rng.random(17)  # advance to an arbitrary stream position
    path = _save(tmp_path, model, opt, rng)
    future = rng.random(5)
    restored = restore_rng(load_checkpoint(path))
    assert np.array_equal(restored.random(5), future)


def test_roundtrip_bookkeeping(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng, episode=999, best_reward=7.25,
                 loss_tail=[0.125, 0.0625], env_hash="a" * 64,
                 config={"train": {"seed": 4}})
    ckpt = load_checkpoint(path)
    assert ckpt.episode == 999
    assert ckpt.best_reward == 7.25
    assert ckpt.loss_tail == [0.125, 0.0625]
    assert ckpt.env_hash == "a" * 64
    assert ckpt.config == {"train": {"seed": 4}}


def test_corrupted_byte_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    doc = json.loads(path.read_text())
    doc["best_reward"] = doc["best_reward"] + 1.0  # silent tamper
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    with pytest.raises(ValidationError, match="corrupted"):
        load_checkpoint(path)


def test_missing_checksum_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_wrong_schema_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    doc = json.loads(path.read_text())
    doc["schema"] = "blockflow-checkpoint/999"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="schema"):
        load_checkpoint(path)


def test_missing_field_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    doc = json.loads(path.read_text())
    del doc["rng_state"]
    del doc["checksum"]
    doc["checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_not_json_is_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json {")
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_schema_constant_embedded(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    doc = json.loads(path.read_text())
    assert doc["schema"] == CHECKPOINT_SCHEMA == "blockflow-checkpoint/1"
    assert len(doc["checksum"]) == 64


def test_file_sha256_known_value(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    # sha256("abc"), a published constant
    assert file_sha256(p) == ("ba7816bf8f01cfea414140de5dae2223"
                              "b00361a396177a9cb410ff61f20015ad")


def test_atomic_write_replaces_the_file_whole_or_not_at_all(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(OSError):
        with atomic_write(path, "wb") as fh:
            fh.write(b"new, partly written")
            raise OSError("disk full")
    assert path.read_bytes() == b"old"
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
        assert path.read_bytes() == b"old"  # nothing shows until the block exits
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_save_keeps_the_old_checkpoint_and_no_tmp(tmp_path, monkeypatch):
    import blockflow.checkpoint as checkpoint_mod
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    before = path.read_bytes()
    real_pieces = checkpoint_mod._dump_pieces

    def dies_midway(payload, **dump_kw):
        pieces = real_pieces(payload, **dump_kw)
        if "indent" not in dump_kw:  # the checksum pass
            return pieces
        def partial():
            yield from pieces[:len(pieces) // 2]
            raise OSError("no space left on device")
        return partial()

    monkeypatch.setattr(checkpoint_mod, "_dump_pieces", dies_midway)
    with pytest.raises(OSError, match="no space"):
        _save(tmp_path, model, opt, rng, episode=99)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


def test_scalar_param_restores_as_zero_dim(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    restored = restore_model(load_checkpoint(path))
    assert restored.parameters()["log_z"].shape == ()
    assert float(restored.log_z_value) == float(model.log_z_value)


# Text that looks like the writer's array markers ("\0<attempt>:<k>"), bare
# and quoted, next to a NUL character and a literal backslash-u0000.
TRICKY_ECHO = {
    "marker": "\x000:0",
    "quoted_marker": '"\x000:1"',
    "next_marker": ["\x001:2", "\x002:0"],
    "nul": "a\x00b",
    "literal": "\\u0000",
    "\x000:3": "marker as a key",
}
# sha256 of the file that the earlier writer, one json.dumps over the whole
# payload, wrote for this checkpoint: splicing must not change a byte.
TRICKY_ECHO_SHA256 = "a23526a17f6cffbd3e65efef14662c8c8963d06356f43a5ef5fc8b37e0bc6ceb"


def test_checkpoint_bytes_are_pinned(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng, config=TRICKY_ECHO)
    assert file_sha256(path) == TRICKY_ECHO_SHA256
    ckpt = load_checkpoint(path)
    assert ckpt.config == TRICKY_ECHO
    for name, p in restore_model(ckpt).parameters().items():
        assert np.array_equal(p, model.parameters()[name]), name


@pytest.fixture(scope="module")
def bridge_run(tmp_path_factory):
    """A bridge run config and the output directory of a 16-episode run of it."""
    tmp = tmp_path_factory.mktemp("bridge")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps({
        "schema": "blockflow-run/1",
        "topology": str(FIXTURES / "topo_bridge.json"),
        "vocabulary": str(FIXTURES / "vocab_bridge.csv"),
        "model": {"embed_dim": 4, "hidden_dim": 6},
        "reward": {"cutoff": 2500.0, "surrogate_scale": 1000.0},
        "train": {"max_episodes": 16, "batch_size": 8, "stop_threshold": 0.0},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
    return cfg, tmp / "run"


def _encoded(values):
    values = np.asarray(values, dtype="<f8")
    return {"shape": list(values.shape), "data": base64.b64encode(values.tobytes()).decode()}


# Structurally wrong checkpoints; the checksum is recomputed after each
# change, so only the structure is wrong.
MALFORMED = {
    "optimizer.beta1 missing": lambda doc: doc["optimizer"].pop("beta1"),
    "optimizer.lr empty": lambda doc: doc["optimizer"].update(lr={}),
    "optimizer.lr not positive": lambda doc: doc["optimizer"]["lr"].update(w_x=0.0),
    "optimizer.step_count text": lambda doc: doc["optimizer"].update(step_count="x"),
    "optimizer.m lacks w_x": lambda doc: doc["optimizer"]["m"].pop("w_x"),
    "optimizer.v b_out misshapen": lambda doc: doc["optimizer"]["v"].update(b_out=_encoded([1.0])),
    "optimizer.m text not base64": lambda doc: doc["optimizer"]["m"]["b"].update(
        data="!" + doc["optimizer"]["m"]["b"]["data"][1:]),
    "rng_state a number": lambda doc: doc.update(rng_state=5),
    "rng_state inner text": lambda doc: doc["rng_state"]["state"].update(state="x"),
    "params lack w_h": lambda doc: doc["params"].pop("w_h"),
    "params b_out not finite": lambda doc: doc["params"].update(
        b_out=_encoded(np.full(doc["params"]["b_out"]["shape"], np.nan))),
    "model_config.hidden_dim text": lambda doc: doc["model_config"].update(hidden_dim="x"),
    "episode text": lambda doc: doc.update(episode="x"),
    "loss_tail a number": lambda doc: doc.update(loss_tail=5),
    "config a list": lambda doc: doc.update(config=[]),
}


@pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_checkpoint_with_a_valid_checksum_exits_2_on_every_reader(
        bridge_run, damage, tmp_path, capsys):
    cfg, run = bridge_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    doc = json.loads((out / "checkpoint.json").read_text())
    del doc["checksum"]
    damage(doc)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    ckpt = tmp_path / "malformed.json"
    ckpt.write_text(json.dumps(doc, indent=1))
    metrics = (out / "metrics.csv").read_bytes()
    assert main(["train", "--config", str(cfg), "--out", str(out), "--max-episodes", "32",
                 "--resume", str(ckpt)]) == 2
    assert (out / "metrics.csv").read_bytes() == metrics
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "-n", "5",
                 "--out", str(tmp_path / "sample")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(line.startswith("error: ") for line in errors)
