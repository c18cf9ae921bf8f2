"""Single-file binary checkpoints with integrity checking.

A `blockflow-checkpoint/3` file is one header line, then the body. The
header is compact, sorted-key JSON that holds only what cannot be derived:
the model dims, the RNG state, the episode, the best reward, the loss tail,
the environment hash, the run's config echo and a `checksum`. It is padded
with spaces so the body starts at a multiple of 8 bytes. The body is the raw
little-endian float64 bytes of the model's flat buffer, then Adam's m, then
its v, each laid out by `model.named_views`; the shapes follow from the
dims. The checksum is a sha256 over the header as dumped without the
checksum, followed by the body. A resumed run takes Adam's rates from its
config and its step count from the episode.

Loading reads the header line, then each body row into an anonymous memory
map, hashing it as it is read, and hands out the rows as writable float64
views, which `restore_model` and a resumed optimizer adopt, not copy. A
reader with no optimizer to restore reads m and v through one reused map and
keeps neither; a row that nothing adopted is unmapped with the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .files import atomic_write, build_dataclass, typed
from .model import FlowModel, ModelConfig

CHECKPOINT_SCHEMA = "blockflow-checkpoint/3"
# /1: base64 arrays inside one JSON document; /2: this layout, with a header
# that restated Adam's rates and step count and each array's shape
_FORMER_SCHEMAS = ("blockflow-checkpoint/1", "blockflow-checkpoint/2")


def _dump(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Checkpoint:
    """A checked checkpoint: the header's fields, the body rows it adopted, and
    `rng`, the run's generator, built from the header's `rng_state`."""
    model_config: ModelConfig
    params: np.ndarray  # each of the three body rows is laid out as model.flat
    m: np.ndarray | None  # Adam's first moment, if it was read
    v: np.ndarray | None  # and its second
    rng: np.random.Generator
    episode: int
    best_reward: float
    loss_tail: list[float]
    env_hash: str
    config: dict
    checksum: str  # the header's, verified on load; it names the file's content


def save_checkpoint(path: str | Path, model: FlowModel, optimizer: Adam,
                    rng: np.random.Generator, episode: int, best_reward: float,
                    loss_tail: list[float], env_hash: str, config: dict | None = None) -> None:
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "model_config": asdict(model.config),
        "rng_state": rng.bit_generator.state,
        "episode": int(episode),
        "best_reward": float(best_reward),
        "loss_tail": [float(x) for x in loss_tail],
        "env_hash": env_hash,
        "config": config or {},
    }
    body = [a.astype("<f8", copy=False) for a in (model.flat, optimizer.m, optimizer.v)]
    digest = hashlib.sha256(_dump(header))
    for arr in body:
        digest.update(arr)
    header["checksum"] = digest.hexdigest()
    line = _dump(header)
    with atomic_write(path, "wb") as fh:
        fh.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
        fh.writelines(body)


def load_checkpoint(path: str | Path, moments: bool = True) -> Checkpoint:
    """Read and check a checkpoint: its checksum, then the type and shape of every field.

    The checksum catches corruption; the structure is checked on its own,
    so every reader refuses a malformed checkpoint the same way. Without
    `moments`, m and v are only hashed, through one reused buffer, and are None.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            line = fh.readline()
            header, claimed = _header(path, line)
            digest = hashlib.sha256(_dump(header))
            body = size - len(line)  # < 0 if the file grew while its header was read
            third = max(body, 0) // 24 * 8  # the last row takes any rest, which _checked refuses
            lengths = (third, third, body - 2 * third)
            # not malloc'd blocks: freeing one this large raises glibc's mmap
            # threshold, and the arrays made after it stay resident on the heap
            maps = [mmap.mmap(-1, max(n, 1)) for n in (lengths if moments else lengths[::2])]
            for length, buf in zip(lengths, maps if moments else maps + maps[1:]):  # v reuses m's
                view = memoryview(buf)[:max(length, 0)]
                if fh.readinto(view) != length:
                    raise OSError("the file changed while it was read")
                digest.update(view)
            if fh.read(1):
                raise OSError("the file changed while it was read")
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from None
    if digest.hexdigest() != claimed:
        raise ValidationError(f"{path}: checksum mismatch, checkpoint is corrupted")
    try:
        return _checked(header, maps if moments else maps[:1], body, claimed)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_run_checkpoint(path: str | Path, env_hash: str, model_config: ModelConfig,
                        moments: bool = False) -> Checkpoint:
    """The checkpoint at `path`, refused unless a run of this environment and
    these model dims wrote it; with Adam's m and v only for `moments`."""
    ckpt = load_checkpoint(path, moments=moments)
    if ckpt.env_hash != env_hash:
        raise ValidationError("checkpoint was produced for a different topology or vocabulary")
    if ckpt.model_config != model_config:
        raise ValidationError(
            f"checkpoint model dims {asdict(ckpt.model_config)} != {asdict(model_config)}")
    return ckpt


def _header(path: Path, line: bytes) -> tuple[dict, str]:
    """The header in the first `line` of the checkpoint at `path`, without its
    checksum, and the checksum."""
    try:
        header = json.loads(line) if line.endswith(b"\n") else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA:
        raise ValidationError(
            f"{path}: expected schema {CHECKPOINT_SCHEMA!r} in a JSON header line; checkpoints "
            f"of the former schemas {' and '.join(map(repr, _FORMER_SCHEMAS))} are no longer "
            f"read, so train a new one")
    claimed = header.pop("checksum", None)
    if not isinstance(claimed, str):
        raise ValidationError(f"{path}: checkpoint has no checksum")
    return header, claimed


_MALFORMED = "malformed checkpoint: "


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(_MALFORMED + message)


def _checked(header: dict, rows: list, length: int, checksum: str) -> Checkpoint:
    """The checkpoint in `header` and the body `rows` it kept, once every field has its
    type and the `length`-byte body holds exactly the arrays that the model dims need."""
    dims = header.get("model_config")
    model_config = build_dataclass(ModelConfig, dims, f"{_MALFORMED}model_config")
    _require(asdict(model_config) == dims,  # a missing dim must not take its default
             f"model_config must give vocab_size, embed_dim and hidden_dim, got {dims!r}")
    shapes = FlowModel.param_shapes(model_config).values()
    n_params = sum(math.prod(shape) for shape in shapes)
    _require(length == 8 * 3 * n_params,
             f"the body holds {length} bytes, the model dims need {8 * 3 * n_params}")
    params, m, v = [np.frombuffer(row, dtype="<f8") for row in rows] + [None] * (3 - len(rows))
    _require(np.isfinite(params).all(), "params hold non-finite values")
    rng = _generator(header.get("rng_state"))
    episode = typed(header.get("episode"), int, f"{_MALFORMED}episode")
    best_reward = typed(header.get("best_reward"), float, f"{_MALFORMED}best_reward")
    loss_tail = typed(header.get("loss_tail"), list[float], f"{_MALFORMED}loss_tail")
    _require(episode >= 0, "episode must be non-negative")
    _require(all(map(math.isfinite, [best_reward, *loss_tail])),
             "best_reward and loss_tail must be finite")
    config = header.get("config", {})
    _require(isinstance(config, dict), "config must be an object")
    _require(isinstance(config.get("reward", {}), dict), "config.reward must be an object")
    _require(isinstance(config.get("best_record"), (str, type(None))),
             "config.best_record must be a string or null")
    return Checkpoint(
        model_config=model_config,
        params=params,
        m=m,
        v=v,
        rng=rng,
        episode=episode,
        best_reward=best_reward,
        loss_tail=loss_tail,
        env_hash=typed(header.get("env_hash"), str, f"{_MALFORMED}env_hash"),
        config=config,
        checksum=checksum,
    )


def restore_model(ckpt: Checkpoint) -> FlowModel:
    """The checkpoint's model, built on its parameter row: the two share the buffer."""
    return FlowModel(ckpt.model_config, ckpt.params)


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
