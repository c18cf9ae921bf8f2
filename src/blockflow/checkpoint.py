"""Single-file JSON checkpoints with integrity checking.

Arrays are stored as base64 little-endian float64 with explicit shapes, so a
checkpoint restores bit-exactly on any platform. The checksum is a sha256
over the canonical JSON of everything except the checksum itself.

The base64 texts make up nearly all of a checkpoint, so they never pass
through the JSON encoder: the payload is dumped with a short marker in
place of each, and the texts are spliced in after (see `_dump_pieces`).

Every artifact the package writes, checkpoints included, goes through
`atomic_write`, so a crash leaves either the old file or the new one. The
model and the optimizer are imported where a checkpoint is read or restored,
so a command that only writes files through `atomic_write` does not load them.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

CHECKPOINT_SCHEMA = "blockflow-checkpoint/1"


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8", order="C")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(memoryview(arr)),
    }


def _decode_array(doc: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(doc["data"], validate=True)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(doc["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValidationError(f"malformed array record in checkpoint: {exc}") from None
    return arr


def _array_records(payload: dict) -> list[dict]:
    """The {"shape", "data"} records of the params and Adam moments."""
    opt = payload["optimizer"]
    return [*payload["params"].values(), *opt["m"].values(), *opt["v"].values()]


def _dump_pieces(payload: dict, **dump_kw) -> list[bytes]:
    """json.dumps(payload, sort_keys=True, **dump_kw) as ASCII bytes, in pieces.

    Each array record holds its base64 text as bytes. For the dump it is
    swapped for a short marker, and it is spliced back after, which is exact
    because base64 needs no JSON escapes. A marker must occur exactly once
    in the dump; if other text of the payload contains it, the next attempt
    uses other markers.
    """
    records = _array_records(payload)
    texts = [rec["data"] for rec in records]
    try:
        for attempt in itertools.count():
            for k, rec in enumerate(records):
                rec["data"] = f"\0{attempt}:{k}"
            dump = json.dumps(payload, sort_keys=True, **dump_kw)
            markers = [json.dumps(rec["data"]) for rec in records]
            if all(dump.count(marker) == 1 for marker in markers):
                break
    finally:
        for rec, text in zip(records, texts):
            rec["data"] = text
    spans = sorted((dump.index(marker), len(marker), text) for marker, text in zip(markers, texts))
    pieces, pos = [], 0
    for start, length, text in spans:
        pieces += [dump[pos:start].encode(), b'"', text, b'"']
        pos = start + length
    pieces.append(dump[pos:].encode())
    return pieces


def _checksum(payload: dict) -> str:
    """sha256 of the canonical JSON of `payload`."""
    digest = hashlib.sha256()
    for piece in _dump_pieces(payload, separators=(",", ":")):
        digest.update(piece)
    return digest.hexdigest()


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kw):
    """Open a temporary file next to `path`; once the block exits it replaces `path`.

    If the block raises, the temporary file is removed and `path` keeps
    its old contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Checkpoint:
    model_config: dict
    params: dict[str, np.ndarray]
    optimizer: dict
    rng_state: dict
    episode: int
    best_reward: float
    loss_tail: list[float]
    env_hash: str
    config: dict


def save_checkpoint(path: str | Path, model: FlowModel, optimizer: Adam,
                    rng: np.random.Generator, episode: int, best_reward: float,
                    loss_tail: list[float], env_hash: str, config: dict | None = None) -> None:
    opt_state = optimizer.state_dict()
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "model_config": {
            "vocab_size": model.config.vocab_size,
            "embed_dim": model.config.embed_dim,
            "hidden_dim": model.config.hidden_dim,
        },
        "params": {name: _encode_array(p) for name, p in model.parameters().items()},
        "optimizer": {
            "step_count": opt_state["step_count"],
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "m": {name: _encode_array(arr) for name, arr in opt_state["m"].items()},
            "v": {name: _encode_array(arr) for name, arr in opt_state["v"].items()},
        },
        "rng_state": rng.bit_generator.state,
        "episode": int(episode),
        "best_reward": float(best_reward),
        "loss_tail": [float(x) for x in loss_tail],
        "env_hash": env_hash,
        "config": config or {},
    }
    payload["checksum"] = _checksum(payload)
    with atomic_write(path, "wb") as fh:
        fh.writelines(_dump_pieces(payload, indent=1))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and check a checkpoint: its checksum, then the type and shape of every field.

    The checksum catches corruption; the structure is checked on its own,
    so every reader refuses a malformed checkpoint the same way. Adam's
    moments are checked without being decoded, and only `restore_optimizer`
    decodes them, so a reader that needs no optimizer does not pay for it.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ValidationError(f"{path}: expected schema {CHECKPOINT_SCHEMA!r}")
    claimed = payload.pop("checksum", None)
    if claimed is None:
        raise ValidationError(f"{path}: checkpoint has no checksum")
    try:
        for rec in _array_records(payload):
            rec["data"] = rec["data"].encode("ascii")
    except (KeyError, TypeError, AttributeError, UnicodeEncodeError) as exc:
        raise ValidationError(f"{path}: malformed array records in checkpoint: {exc!r}") from None
    actual = _checksum(payload)
    if actual != claimed:
        raise ValidationError(f"{path}: checksum mismatch, checkpoint is corrupted")
    try:
        return _checked(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(f"malformed checkpoint: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _check_records(doc: dict, shapes: dict[str, tuple[int, ...]], where: str) -> None:
    """Check that `doc` holds, per parameter, a record that decodes to a
    float64 array of its shape, without decoding it."""
    _require(set(doc) == set(shapes), f"{where} holds {sorted(doc)}, expected {sorted(shapes)}")
    for name, rec in doc.items():
        shape, text = shapes[name], rec["data"]
        n_bytes = 8 * math.prod(shape)
        padding = b"=" * (-n_bytes % 3)
        _require(rec.get("shape") == list(shape) and len(text) == 4 * -(-n_bytes // 3)
                 and text.endswith(padding)
                 and not text[:len(text) - len(padding)].translate(None, _BASE64_ALPHABET),
                 f"{where}.{name} is not a base64 float64 array of shape {shape}")


def _checked(payload: dict) -> Checkpoint:
    """The checkpoint in `payload`, once every field has its type and every array its shape."""
    from .model import FlowModel, ModelConfig
    dims = payload.get("model_config")
    _require(isinstance(dims, dict) and set(dims) == {"vocab_size", "embed_dim", "hidden_dim"}
             and all(_is_int(v) for v in dims.values()),
             f"model_config must give vocab_size, embed_dim and hidden_dim as integers, "
             f"got {dims!r}")
    shapes = FlowModel.param_shapes(ModelConfig(**dims))
    opt = payload.get("optimizer")
    _require(isinstance(opt, dict), "optimizer must be an object")
    lr = opt.get("lr")
    _require(isinstance(lr, dict) and set(lr) == set(shapes)
             and all(_is_number(rate) and rate > 0 for rate in lr.values()),
             f"optimizer.lr must give every parameter a positive rate, got {lr!r}")
    for key in ("beta1", "beta2", "eps"):
        _require(_is_number(opt.get(key)), f"optimizer.{key} must be a number")
    _require(_is_int(opt.get("step_count")) and opt["step_count"] >= 0,
             "optimizer.step_count must be a non-negative integer")
    for where, doc in (("params", payload["params"]), ("optimizer.m", opt["m"]),
                       ("optimizer.v", opt["v"])):
        _check_records(doc, shapes, where)
    params = {name: _decode_array(rec) for name, rec in payload["params"].items()}
    _require(all(np.all(np.isfinite(p)) for p in params.values()), "params hold non-finite values")
    _generator(payload.get("rng_state"))
    episode, best_reward, loss_tail = (payload.get(key)
                                       for key in ("episode", "best_reward", "loss_tail"))
    _require(_is_int(episode) and episode >= 0, "episode must be a non-negative integer")
    _require(_is_number(best_reward), "best_reward must be a number")
    _require(isinstance(loss_tail, list) and all(_is_number(x) for x in loss_tail),
             "loss_tail must be a list of numbers")
    _require(isinstance(payload.get("env_hash"), str), "env_hash must be a string")
    _require(isinstance(payload.get("config", {}), dict), "config must be an object")
    return Checkpoint(
        model_config=dims,
        params=params,
        optimizer=opt,
        rng_state=payload["rng_state"],
        episode=episode,
        best_reward=float(best_reward),
        loss_tail=[float(x) for x in loss_tail],
        env_hash=payload["env_hash"],
        config=payload.get("config", {}),
    )


def restore_model(ckpt: Checkpoint) -> FlowModel:
    from .model import FlowModel, ModelConfig
    return FlowModel(ModelConfig(**ckpt.model_config), dict(ckpt.params))


def restore_optimizer(ckpt: Checkpoint, model: FlowModel) -> Adam:
    from .optim import Adam
    doc = ckpt.optimizer
    # every parameter has its own rate, so the base rate only has to be valid
    opt = Adam(model.parameters(), lr=min(doc["lr"].values()), lr_overrides=doc["lr"],
               beta1=float(doc["beta1"]), beta2=float(doc["beta2"]), eps=float(doc["eps"]))
    opt.load_state_dict({
        "step_count": int(doc["step_count"]),
        "m": {name: _decode_array(d) for name, d in doc["m"].items()},
        "v": {name: _decode_array(d) for name, d in doc["v"].items()},
    })
    return opt


def _generator(state) -> np.random.Generator:
    """A generator in the serialized bit-generator `state`."""
    rng = np.random.Generator(np.random.PCG64())
    try:
        state = dict(state)
        if isinstance(state.get("state"), dict):
            state["state"] = {k: int(v) for k, v in state["state"].items()}
        rng.bit_generator.state = state
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"invalid RNG state in checkpoint: {exc}") from None
    return rng


def restore_rng(ckpt: Checkpoint) -> np.random.Generator:
    return _generator(ckpt.rng_state)
