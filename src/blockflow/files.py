"""A run's files, each rule in one place: reading a user's file and its JSON
records, and writing, reading back and trimming the package's own files. It
loads only the standard library, so the CLI imports it before numpy.

Every file the package writes goes through `atomic_write`, so a crash leaves
the old file or the new one, except `metrics.csv`: it is appended row by row,
and `trim_table` cuts it back to whole rows. `write_manifest` alone makes a run
directory. A table is `csv.writer`'s default dialect: a header row, then one
row per record, each line ended by `\r\n`. A float cell is its `repr`, so it
reads back to the same bits, and an empty cell is a missing value.
"""

import contextlib
import csv
import dataclasses
import json
import os
import typing
from pathlib import Path

from .errors import ValidationError


def read_text(path) -> str:
    """The text of the user's file at `path`, refused unless it can be read as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def read_json(path, schema: str) -> dict:
    """The JSON object in the user's file at `path`, without its `"schema": schema` key."""
    try:
        doc = json.loads(read_text(path))
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


def typed(value, kind, where: str):
    """`value` if JSON gave it the annotated type `kind`; a list of a `list[...]`
    or `tuple[..., ...]` kind is checked item by item and returned as that container."""
    container = typing.get_origin(kind)
    if container in (list, tuple):
        item = typing.get_args(kind)[0]
        if isinstance(value, list):
            try:
                return container(typed(v, item, where) for v in value)
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


def build_dataclass(cls, doc: dict, where: str):
    """`cls` built from the JSON object `doc`, each value checked against its field's type."""
    kinds = typing.get_type_hints(cls)
    unknown = set(typed(doc, dict, where)) - set(kinds)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(kinds)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    values = {key: typed(value, kinds[key], f"{where}.{key}") for key, value in doc.items()}
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kw):
    """Open a temporary file next to `path`; once the block exits it replaces `path`.

    If the block raises, the temporary file is removed and `path` keeps
    its old contents. A text file is UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8", **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_manifest(path: str | Path, command: str, inputs: dict) -> None:
    """Make the run directory, `path`'s parent, and write the manifest at `path`:
    the `command` and the resolved `inputs` it runs on."""
    run_dir = Path(path).parent
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{run_dir}: cannot make the run directory: {exc.strerror}") from None
    with atomic_write(path) as fh:
        fh.write(json.dumps({"schema": "blockflow-run-manifest/1", "command": command, **inputs},
                            sort_keys=True, indent=1))


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write `header`, then each of `rows`, as one CSV file through `atomic_write`."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str | Path, expected: list[str] | None = None
               ) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of the CSV file at `path`, and each later row with its line number.

    The header of an empty file is `[]`. A file that cannot be read, decoded
    or parsed, a row that is not as wide as the header, or a header other
    than an `expected` one, is refused.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    for line, row in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
    if expected is not None and header != expected:
        raise ValidationError(f"{path}: expected header {','.join(expected)}")
    return header, rows


def trim_table(path: str | Path, header: list[str], last_episode: int) -> None:
    """Rewrite the table at `path`, or write a missing one, as `header` and its
    rows of episodes up to `last_episode`, a row's episode being its first cell.

    A crash can cut the table at any byte, so each line is read on its own, and
    one is dropped if it has no terminator, is not UTF-8, is not one CSV row as
    wide as `header`, or has no decimal episode. No cell may hold a line break.
    """
    try:
        lines = Path(path).read_bytes().split(b"\n")[1:-1]
    except FileNotFoundError:
        lines = []
    rows = []
    for line in lines:
        try:  # a UnicodeDecodeError, a line of more than one row, or an episode too long for `int`
            [row] = csv.reader([line.decode("utf-8")], strict=True)
            if len(row) == len(header) and row[0].isdecimal() and int(row[0]) <= last_episode:
                rows.append(row)
        except (ValueError, csv.Error):
            continue
    write_table(path, header, rows)
