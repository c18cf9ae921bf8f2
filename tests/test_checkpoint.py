import builtins
import hashlib
import json
import math
import mmap
import os
import shutil
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from blockflow import Adam, FlowModel, ModelConfig, load_checkpoint, restore_model, save_checkpoint
from blockflow.checkpoint import CHECKPOINT_SCHEMA
from blockflow.cli import load_run_config, main
from blockflow.errors import ValidationError
from blockflow.model import named_views
from conftest import FIXTURES, file_sha256

CFG = ModelConfig(vocab_size=5, embed_dim=4, hidden_dim=6)


def _trained_pieces(seed=0, updates=3):
    """A model plus optimizer that have actually stepped, so every slot of
    state (m, v, step counter) carries non-trivial values."""
    model = FlowModel.init(CFG, seed=seed)
    opt = Adam(model.parameters(), lr=1e-2, lr_overrides={"log_z": 0.1})
    rng = np.random.Generator(np.random.PCG64(77))
    grad = np.empty_like(model.flat)
    for _ in range(updates):
        for name, g in named_views(grad, FlowModel.param_shapes(CFG)).items():
            g[...] = rng.standard_normal(g.shape) if g.shape else rng.standard_normal()
        opt.step(model.flat, grad)
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


def test_restored_model_adopts_the_parameters_and_makes_no_gradients(tmp_path):
    # each body row is read into a buffer of its own; the model is built on the
    # parameter row, so restoring copies nothing, and dropping the checkpoint
    # releases m and v. The gradient buffer is made by the first balance_grad.
    cfg = ModelConfig(vocab_size=10, embed_dim=16, hidden_dim=64)
    model = FlowModel.init(cfg)
    path = _save(tmp_path, model, Adam(model.parameters(), lr=1e-2), np.random.default_rng(0))
    ckpt = load_checkpoint(path)
    moments = [weakref.ref(row) for row in (ckpt.m, ckpt.v)]
    tracemalloc.start()
    try:
        restored = restore_model(ckpt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restored.flat is ckpt.params and restored.grad is None
    assert restored.flat.base.nbytes == restored.flat.nbytes  # a buffer the size of the params
    assert peak < 0.25 * restored.flat.nbytes  # neither a copy of w_h (76%) nor a gradient
    del ckpt
    assert [ref() for ref in moments] == [None, None]
    assert restored.flat.tobytes() == model.flat.tobytes()


def test_a_load_without_moments_keeps_no_moment_row(tmp_path, monkeypatch):
    # m and v are read and hashed through one reused buffer, which is freed
    # once the checkpoint is checked: only the parameter row stays mapped
    import blockflow.checkpoint as checkpoint_mod
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    made = []
    monkeypatch.setattr(checkpoint_mod, "mmap", SimpleNamespace(
        mmap=lambda *args: made.append(mmap.mmap(*args)) or made[-1]))
    ckpt = checkpoint_mod.load_run_checkpoint(path, "e" * 64, CFG)
    assert ckpt.m is None and ckpt.v is None
    assert ckpt.params.tobytes() == model.flat.tobytes()
    buffers = [weakref.ref(buf) for buf in made]
    made.clear()
    assert [ref() is not None for ref in buffers] == [True, False]
    assert ckpt.params.base.obj is buffers[0]()
    resumed = checkpoint_mod.load_run_checkpoint(path, "e" * 64, CFG, moments=True)
    assert resumed.m.tobytes() == opt.m.tobytes() and resumed.v.tobytes() == opt.v.tobytes()


def test_roundtrip_optimizer_state(tmp_path):
    model, opt, rng = _trained_pieces(updates=3)
    path = _save(tmp_path, model, opt, rng, episode=12)
    ckpt = load_checkpoint(path)
    restored_model = restore_model(ckpt)
    # as a resumed train does: an optimizer built from the run's rates, its
    # step count taken from the episode (3 full batches of 4), and the
    # checkpoint's moments loaded into it
    restored_opt = Adam(restored_model.parameters(), lr=1e-2, lr_overrides={"log_z": 0.1})
    restored_opt.step_count, restored_opt.m, restored_opt.v = ckpt.episode // 4, ckpt.m, ckpt.v

    # stepping both with the same gradient must produce identical params
    g = np.full_like(model.flat, 0.37)
    opt.step(model.flat, g)
    restored_opt.step(restored_model.flat, g)
    assert restored_model.flat.tobytes() == model.flat.tobytes()


def test_roundtrip_rng_stream_continues(tmp_path):
    model, opt, rng = _trained_pieces()
    rng.random(17)  # advance to an arbitrary stream position
    path = _save(tmp_path, model, opt, rng)
    future = rng.random(5)
    restored = load_checkpoint(path).rng
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


def read_checkpoint(path):
    """The JSON header of a checkpoint file and its body, read by hand."""
    line, _, body = path.read_bytes().partition(b"\n")
    return json.loads(line), body


def write_checkpoint(path, header, body, checksum=None):
    """A checkpoint file of `header` and `body`; the checksum, unless given, is
    recomputed by hand over the header as dumped without it, then the body."""
    header = {key: value for key, value in header.items() if key != "checksum"}
    dump = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    header["checksum"] = checksum or hashlib.sha256(dump + body).hexdigest()
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
                     + b"\n" + body)


@pytest.mark.parametrize("moments", [True, False])
@pytest.mark.parametrize("tamper", ["header", "params", "m", "v"])
def test_corrupted_byte_is_rejected(tmp_path, tamper, moments):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    header, body = read_checkpoint(path)
    if tamper == "header":
        header["best_reward"] += 1.0  # silent tamper
    else:
        at = ["params", "m", "v"].index(tamper) * model.flat.nbytes + 100
        body = body[:at] + bytes([body[at] ^ 1]) + body[at + 1:]
    write_checkpoint(path, header, body, checksum=header["checksum"])
    with pytest.raises(ValidationError) as refused:
        load_checkpoint(path, moments=moments)
    assert str(refused.value) == f"{path}: checksum mismatch, checkpoint is corrupted"


@pytest.mark.parametrize("moments", [True, False])
@pytest.mark.parametrize("keep", ["half the header", "the header line", "half the body",
                                  "all but the last byte"])
def test_truncated_checkpoint_is_rejected(tmp_path, keep, moments):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    data = path.read_bytes()
    header_end = data.index(b"\n") + 1
    cut = {"half the header": header_end // 2, "the header line": header_end,
           "half the body": (header_end + len(data)) // 2, "all but the last byte": len(data) - 1}
    path.write_bytes(data[:cut[keep]])
    with pytest.raises(ValidationError, match="schema|corrupted"):
        load_checkpoint(path, moments=moments)


def test_missing_checksum_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    header, body = read_checkpoint(path)
    del header["checksum"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(ValidationError, match="no checksum"):
        load_checkpoint(path)


def test_wrong_schema_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    header, body = read_checkpoint(path)
    header["schema"] = "blockflow-checkpoint/999"
    write_checkpoint(path, header, body)
    with pytest.raises(ValidationError, match=f"expected schema '{CHECKPOINT_SCHEMA}'"):
        load_checkpoint(path)


def test_missing_field_is_rejected(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    header, body = read_checkpoint(path)
    del header["rng_state"]
    write_checkpoint(path, header, body, checksum="0" * 64)
    with pytest.raises(ValidationError):
        load_checkpoint(path)


@pytest.mark.parametrize("text", ["this is not json {", "", "[1, 2]\n", "{\n"])
def test_not_json_is_rejected(tmp_path, text):
    path = tmp_path / "junk.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=CHECKPOINT_SCHEMA):
        load_checkpoint(path)


def test_schema_constant_embedded(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    header, body = read_checkpoint(path)
    assert header["schema"] == CHECKPOINT_SCHEMA == "blockflow-checkpoint/3"
    assert len(header["checksum"]) == 64
    # nothing that follows from the dims, the config or the episode: no shape
    # table, no rates and no step count
    assert sorted(header) == ["best_reward", "checksum", "config", "env_hash", "episode",
                              "loss_tail", "model_config", "rng_state", "schema"]
    # one compact, sorted-key header line, padded so the body starts at a multiple of 8 bytes
    line = path.read_bytes().partition(b"\n")[0]
    assert line.rstrip(b" ") == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert (len(line) + 1) % 8 == 0
    # the raw little-endian float64 arrays: params, then m, then v, by name
    groups = (model.parameters(),
              *(named_views(moment, FlowModel.param_shapes(CFG)) for moment in (opt.m, opt.v)))
    assert body == b"".join(np.asarray(arrays[name], dtype="<f8").tobytes()
                            for arrays in groups for name in sorted(arrays))


def test_the_body_is_the_model_and_optimizer_buffers(tmp_path):
    model, opt, rng = _trained_pieces()
    body = read_checkpoint(_save(tmp_path, model, opt, rng))[1]
    assert body == model.flat.tobytes() + opt.m.tobytes() + opt.v.tobytes()
    assert list(model.parameters()) == ["embed", "w_x", "w_h", "b", "w_out", "b_out", "log_z"]
    # the model adopts the buffer it is given: every parameter is a view of it
    flat = model.flat.copy()
    adopted = FlowModel(CFG, flat)
    assert adopted.flat is flat
    for name, p in adopted.parameters().items():
        assert p.base is flat and p.tobytes() == model.parameters()[name].tobytes(), name


def test_loaded_arrays_are_writable_contiguous_float64_views(tmp_path):
    model, opt, rng = _trained_pieces()
    ckpt = load_checkpoint(_save(tmp_path, model, opt, rng))
    rows = (ckpt.params, ckpt.m, ckpt.v)
    for row, want in zip(rows, (model.flat, opt.m, opt.v)):
        assert row.shape == (model.flat.size,) and row.dtype == np.float64
        assert row.flags.writeable and row.flags.c_contiguous and row.flags.aligned
        assert row.tobytes() == want.tobytes()
    # one buffer per row, so each is freed on its own
    assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:] + rows[:1]))


@pytest.mark.parametrize("moments", [True, False])
@pytest.mark.parametrize("change", ["grows", "shrinks"])
def test_a_file_that_changes_while_it_is_read_is_refused(tmp_path, monkeypatch, change, moments):
    # the loader takes the file's size, then reads the header line and the
    # body rows; here the file changes right after its size is taken
    import blockflow.checkpoint as checkpoint_mod
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    fstat = os.fstat

    def fstat_then_change(fd):
        stat = fstat(fd)
        if change == "grows":
            with open(path, "ab") as fh:
                fh.write(bytes(8))
        else:
            os.truncate(path, stat.st_size - 8)
        return stat

    monkeypatch.setattr(checkpoint_mod.os, "fstat", fstat_then_change)
    with pytest.raises(ValidationError, match="the file changed while it was read"):
        load_checkpoint(path, moments=moments)


def test_file_sha256_known_value(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    # sha256("abc"), a published constant
    assert file_sha256(p) == ("ba7816bf8f01cfea414140de5dae2223"
                              "b00361a396177a9cb410ff61f20015ad")


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


class DiesMidBody:
    """A binary file whose `writelines` writes half of the arrays, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        return self.fh.write(data)

    def writelines(self, pieces):
        pieces = list(pieces)
        self.fh.writelines(pieces[:len(pieces) // 2])
        raise OSError("no space left on device")


def test_failed_save_keeps_the_old_checkpoint_and_no_tmp(tmp_path, monkeypatch):
    import blockflow.files as files_mod
    model, opt, rng = _trained_pieces()
    path = _save(tmp_path, model, opt, rng)
    before = path.read_bytes()
    monkeypatch.setattr(files_mod, "open", lambda *args, **kw: DiesMidBody(
        builtins.open(*args, **kw)), raising=False)
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


# Text the header line must carry as JSON escapes: NUL characters (bare, in
# a key, quoted), a literal backslash-u0000 and newlines, which must not end
# the header line.
TRICKY_ECHO = {
    "marker": "\x000:0",
    "quoted_marker": '"\x000:1"',
    "next_marker": ["\x001:2", "\x002:0"],
    "nul": "a\x00b",
    "literal": "\\u0000",
    "\x000:3": "marker as a key",
    "newlines": "a\nb\r\n",
}
# sha256 of the blockflow-checkpoint/3 file written for this checkpoint.
TRICKY_ECHO_SHA256 = "e8148eea2759f58b9ec0bb4e7a73d4c519a7cea5938a7e81386b707486b3c5af"


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


def _nan_param(ckpt, name):
    """The body with the parameter `name` all NaN."""
    shapes = FlowModel.param_shapes(ModelConfig(**ckpt["header"]["model_config"]))
    names = sorted(shapes)
    start = 8 * sum(math.prod(shapes[n]) for n in names[:names.index(name)])
    end = start + 8 * math.prod(shapes[name])
    return ckpt["body"][:start] + np.full((end - start) // 8, np.nan).tobytes() + ckpt["body"][end:]


# Structurally wrong checkpoints; the checksum is recomputed after each
# change, so only the structure is wrong.
MALFORMED = {
    "body short": lambda ckpt: ckpt.update(body=ckpt["body"][:-8]),
    "body with trailing bytes": lambda ckpt: ckpt.update(body=ckpt["body"] + bytes(8)),
    "rng_state a number": lambda ckpt: ckpt["header"].update(rng_state=5),
    "rng_state inner text": lambda ckpt: ckpt["header"]["rng_state"]["state"].update(state="x"),
    "params b_out not finite": lambda ckpt: ckpt.update(body=_nan_param(ckpt, "b_out")),
    "model_config.hidden_dim text": lambda ckpt: ckpt["header"]["model_config"].update(
        hidden_dim="x"),
    # the body's length follows from the dims alone
    "model_config.embed_dim not the body's": lambda ckpt: ckpt["header"]["model_config"].update(
        embed_dim=5),
    "episode text": lambda ckpt: ckpt["header"].update(episode="x"),
    "best_reward an integer too large for a float": lambda ckpt: ckpt["header"].update(
        best_reward=10**400),
    "loss_tail a number": lambda ckpt: ckpt["header"].update(loss_tail=5),
    "config a list": lambda ckpt: ckpt["header"].update(config=[]),
    "config.reward a list": lambda ckpt: ckpt["header"]["config"].update(reward=[1]),
    "config.reward null": lambda ckpt: ckpt["header"]["config"].update(reward=None),
    "config.best_record a number": lambda ckpt: ckpt["header"]["config"].update(best_record=5),
}


@pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_checkpoint_with_a_valid_checksum_exits_2_on_every_reader(
        bridge_run, damage, tmp_path, capsys):
    cfg, run = bridge_run
    header, body = read_checkpoint(run / "checkpoint.json")
    damaged = {"header": header, "body": body}
    damage(damaged)
    ckpt = tmp_path / "malformed.json"
    write_checkpoint(ckpt, damaged["header"], damaged["body"])
    errors = _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys)
    assert all(line.startswith("error: ") for line in errors)


@pytest.mark.parametrize("row", ["params", "m", "v"])
def test_a_flipped_body_byte_exits_2_on_every_reader_with_one_message(
        bridge_run, row, tmp_path, capsys):
    # `sample` and `baseline` hash m and v without keeping them, and refuse
    # a flipped byte in them as `train --resume` does
    cfg, run = bridge_run
    header, body = read_checkpoint(run / "checkpoint.json")
    at = ["params", "m", "v"].index(row) * len(body) // 3 + 5
    ckpt = tmp_path / "flipped.json"
    write_checkpoint(ckpt, header, body[:at] + bytes([body[at] ^ 1]) + body[at + 1:],
                     checksum=header["checksum"])
    errors = _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys)
    assert errors == [f"error: {ckpt}: checksum mismatch, checkpoint is corrupted"] * 3


@pytest.mark.parametrize("command", ["sample", "baseline"])
def test_sample_and_baseline_draw_with_no_moment_row_alive(bridge_run, tmp_path, monkeypatch,
                                                          command):
    import blockflow.checkpoint as checkpoint_mod
    import blockflow.dataset as dataset_mod
    cfg, run = bridge_run
    made, alive = [], []
    rollout = dataset_mod.rollout

    def mapping(*args):
        buf = mmap.mmap(*args)
        made.append(weakref.ref(buf))
        return buf

    def drawing(*args):
        alive.append([ref() is not None for ref in made])
        return rollout(*args)

    monkeypatch.setattr(checkpoint_mod, "mmap", SimpleNamespace(mmap=mapping))
    monkeypatch.setattr(dataset_mod, "rollout", drawing)
    assert main([command, "--config", str(cfg), "--checkpoint", str(run / "checkpoint.json"),
                 "-n", "5", "--out", str(tmp_path / command)]) == 0
    # at every draw, one per arm: the parameter row, adopted by the model; not the spare
    assert alive == [[True, False]] * {"sample": 1, "baseline": 2}[command]


# Model dims other than the bridge run's, saved on the bridge run's environment
OTHER_DIMS = {
    "vocab_size 9": ModelConfig(vocab_size=9, embed_dim=4, hidden_dim=6),
    "embed 8 hidden 12": ModelConfig(vocab_size=7, embed_dim=8, hidden_dim=12),
}


@pytest.mark.parametrize("dims", OTHER_DIMS.values(), ids=OTHER_DIMS.keys())
def test_a_checkpoint_of_other_model_dims_exits_2_on_every_reader(
        bridge_run, dims, tmp_path, capsys):
    cfg, run = bridge_run
    model = FlowModel.init(dims, seed=0)
    ckpt = tmp_path / "other_dims.json"
    save_checkpoint(ckpt, model, Adam(model.parameters(), lr=1e-3),
                    np.random.Generator(np.random.PCG64(0)), 0, 0.0, [],
                    load_run_config(cfg).env.env_hash)
    errors = _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys)
    assert all("checkpoint model dims" in line for line in errors), errors


def _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys) -> list[str]:
    """`train --resume`, `sample` and `baseline` each exit 2 on `ckpt` and write
    nothing; returns their three error lines."""
    out = tmp_path / "run"
    shutil.copytree(run, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["train", "--config", str(cfg), "--out", str(out), "--max-episodes", "32",
                 "--resume", str(ckpt)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "-n", "5",
                 "--out", str(tmp_path / "sample")]) == 2
    assert not (tmp_path / "sample").exists()
    assert main(["baseline", "--config", str(cfg), "--checkpoint", str(ckpt), "-n", "5",
                 "--out", str(tmp_path / "baseline")]) == 2
    assert not (tmp_path / "baseline").exists()
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3
    return errors


# Headers this run's writer cannot have written, each with the refusal it gets.
INCONSISTENT = {
    # only full batches train, so Adam's step count is episode // batch_size
    # only where the episode is a multiple of batch_size
    "episode": (lambda header: header.update(episode=12),
                "episode 12 is not a multiple of batch_size 8"),
    # the tail holds the last max(stop_window, smooth_window) losses, or every
    # loss before that many episodes; a shorter one changes the smoothed losses
    "loss_tail": (lambda header: header.update(loss_tail=header["loss_tail"][-8:]),
                  "loss tail holds 8 losses, and episode 16 needs 16"),
}


@pytest.mark.parametrize("damage, message", INCONSISTENT.values(), ids=INCONSISTENT.keys())
def test_a_resume_refuses_an_episode_that_is_not_a_whole_number_of_batches(
        bridge_run, damage, message, tmp_path, capsys):
    cfg, run = bridge_run
    header, body = read_checkpoint(run / "checkpoint.json")
    damage(header)
    ckpt = tmp_path / "episode.json"
    write_checkpoint(ckpt, header, body)
    out = tmp_path / "run"
    shutil.copytree(run, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["train", "--config", str(cfg), "--out", str(out), "--max-episodes", "32",
                 "--resume", str(ckpt)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert message in capsys.readouterr().err
    assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "-n", "5",
                 "--out", str(tmp_path / "sample")]) == 0


# Checkpoints the former writers wrote for the bridge_run config: /1 holds
# base64 arrays inside one indented JSON document; /2 is the current layout
# with an optimizer block and a shape table in its header.
FORMER_CHECKPOINT = FIXTURES / "checkpoint_v1_bridge.json"
FORMER_V2_CHECKPOINT = FIXTURES / "checkpoint_v2_bridge.json"
FORMER_SCHEMAS = ("blockflow-checkpoint/1", "blockflow-checkpoint/2")


@pytest.mark.parametrize("content", ["schema /1", "schema /2", "header not JSON",
                                     "no header line"])
def test_a_former_or_foreign_checkpoint_exits_2_and_names_every_schema(
        bridge_run, content, tmp_path, capsys):
    cfg, run = bridge_run
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_bytes({"schema /1": FORMER_CHECKPOINT.read_bytes(),
                      "schema /2": FORMER_V2_CHECKPOINT.read_bytes(),
                      "header not JSON": b"blockflow\n" + bytes(64),
                      "no header line": json.dumps({"schema": CHECKPOINT_SCHEMA}).encode()}[content])
    for line in _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys):
        assert all(schema in line for schema in (CHECKPOINT_SCHEMA, *FORMER_SCHEMAS)), line


def test_a_former_checkpoint_with_a_rewritten_step_count_is_refused(bridge_run, tmp_path,
                                                                    capsys):
    # a /2 header restated Adam's step count; rewritten, with the checksum
    # recomputed, it resumed with the bias correction at the wrong step and
    # matched no uninterrupted run
    cfg, run = bridge_run
    header, body = read_checkpoint(FORMER_V2_CHECKPOINT)
    assert (header["episode"], header["config"]["train"]["batch_size"]) == (16, 8)
    assert header["optimizer"]["step_count"] == 2
    header["optimizer"]["step_count"] = 7
    ckpt = tmp_path / "steps.json"
    write_checkpoint(ckpt, header, body)
    for line in _refused_by_every_reader(cfg, run, ckpt, tmp_path, capsys):
        assert "blockflow-checkpoint/2" in line, line


def test_the_former_checkpoint_fixtures_are_valid_former_checkpoints():
    doc = json.loads(FORMER_CHECKPOINT.read_text())
    assert doc["schema"] == "blockflow-checkpoint/1" and len(doc["checksum"]) == 64
    header, body = read_checkpoint(FORMER_V2_CHECKPOINT)
    assert header["schema"] == "blockflow-checkpoint/2"
    claimed = header.pop("checksum")
    dump = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(dump + body).hexdigest() == claimed
    assert len(body) == 3 * 8 * sum(math.prod(shape) for shape in header["params"].values())
