"""The package's two errors, the one reader of a user's file, and the one
typed reader of JSON records.

ValidationError means "the inputs are wrong" (CLI exit code 2); any other
BlockflowError means "the run failed at runtime" (CLI exit code 1).
"""

import dataclasses
import json
import typing
from pathlib import Path


class BlockflowError(Exception):
    """Base class for all package errors."""


class ValidationError(BlockflowError):
    """Bad input: config, schema, file contents, or argument contracts."""


def _read_text(path) -> str:
    """The text of the user's file at `path`, refused unless it can be read as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def _read_json(path, schema: str) -> dict:
    """The JSON object in the user's file at `path`, without its `"schema": schema` key."""
    try:
        doc = json.loads(_read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.pop("schema", None) != schema:
        raise ValidationError(f"{path}: expected schema {schema!r}")
    return doc


# What each annotated field type accepts from JSON, and its name in errors;
# a bool is never a number, and a number never a bool.
_JSON_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"), str: ((str,), "string"),
               bool: ((bool,), "boolean"), dict: ((dict,), "object")}


def _plural(kind) -> str:
    if typing.get_origin(kind) in (list, tuple):
        return f"lists of {_plural(typing.get_args(kind)[0])}"
    return f"{_JSON_TYPES[kind][1]}s"


def _typed(value, kind, where: str):
    """`value` if JSON gave it the annotated type `kind`; a list of a `list[...]`
    or `tuple[..., ...]` kind is checked item by item and returned as that container."""
    container = typing.get_origin(kind)
    if container in (list, tuple):
        item = typing.get_args(kind)[0]
        if isinstance(value, list):
            try:
                return container(_typed(v, item, where) for v in value)
            except ValidationError:
                pass
        expected = f"a list of {_plural(item)}"
    else:
        accepted, name = _JSON_TYPES[kind]
        if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
            if kind is not float:
                return value
            try:
                return float(value)
            except OverflowError:
                raise ValidationError(f"{where} must be a number a float can hold, "
                                      f"got an integer of {len(str(value))} digits") from None
        expected = f"of type {name}"
    raise ValidationError(f"{where} must be {expected}, got {value!r}")


def _build_dataclass(cls, doc: dict, where: str):
    """`cls` built from the JSON object `doc`, each value checked against its field's type."""
    kinds = typing.get_type_hints(cls)
    unknown = set(_typed(doc, dict, where)) - set(kinds)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(kinds)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    values = {key: _typed(value, kinds[key], f"{where}.{key}") for key, value in doc.items()}
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
