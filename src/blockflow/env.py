"""Slot-constrained assembly environment.

An assembly is built token by token: one token per node slot, then one per
edge slot (when edges are enabled). Each slot accepts a fixed set of
vocabulary tokens, so the action mask depends only on the slot index and
never on which tokens were chosen earlier. Every slot set is required to be
non-empty, which rules out dead ends by construction.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EnumerationBoundError, ValidationError

VOCAB_SCHEMA = "vocabulary/1"
TOPOLOGY_SCHEMA = "topology/1"

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")


@dataclass(frozen=True)
class Token:
    token_id: str
    kind: str  # "node" or "edge"
    mass_g_mol: float
    surface_a2: float


class Vocabulary:
    """Ordered token table; index order is file order."""

    def __init__(self, tokens: list[Token]):
        if not tokens:
            raise ValidationError("vocabulary is empty")
        seen: set[str] = set()
        for tok in tokens:
            if tok.kind not in ("node", "edge"):
                raise ValidationError(f"token {tok.token_id!r} has unknown kind {tok.kind!r}")
            if tok.token_id in seen:
                raise ValidationError(f"duplicate token id {tok.token_id!r}")
            seen.add(tok.token_id)
            if not (tok.mass_g_mol > 0):
                raise ValidationError(f"token {tok.token_id!r} must have positive mass")
            if not (tok.surface_a2 >= 0):
                raise ValidationError(f"token {tok.token_id!r} must have non-negative surface area")
        self.tokens = list(tokens)
        self.index = {tok.token_id: i for i, tok in enumerate(tokens)}
        self.masses = np.array([tok.mass_g_mol for tok in tokens], dtype=np.float64)
        self.surfaces = np.array([tok.surface_a2 for tok in tokens], dtype=np.float64)
        self.masses.setflags(write=False)
        self.surfaces.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]

    def canonical_payload(self) -> list[list]:
        return [[t.token_id, t.kind, t.mass_g_mol, t.surface_a2] for t in self.tokens]

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if not lines or not lines[0].strip().startswith("#"):
            raise ValidationError(f"{path}:1: missing schema comment line")
        m = re.search(r"schema=(\S+)", lines[0])
        if m is None or m.group(1) != VOCAB_SCHEMA:
            raise ValidationError(f"{path}:1: expected schema={VOCAB_SCHEMA}")
        reader = csv.reader(lines[1:])
        rows = [(i + 2, row) for i, row in enumerate(reader) if row and any(cell.strip() for cell in row)]
        if not rows:
            raise ValidationError(f"{path}: no header row")
        header_no, header = rows[0]
        if [h.strip() for h in header] != ["token", "kind", "mass_g_mol", "surface_a2"]:
            raise ValidationError(f"{path}:{header_no}: bad header {header!r}")
        tokens = []
        for lineno, row in rows[1:]:
            if len(row) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            token_id, kind = row[0].strip(), row[1].strip()
            try:
                mass, surface = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            prefix = {"node": "N", "edge": "E"}.get(kind)
            if prefix is None:
                raise ValidationError(f"{path}:{lineno}: unknown kind {kind!r}")
            if not token_id.startswith(prefix):
                raise ValidationError(
                    f"{path}:{lineno}: token {token_id!r} of kind {kind!r} must start with {prefix!r}")
            tokens.append(Token(token_id, kind, mass, surface))
        try:
            return cls(tokens)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Topology:
    """Named slot template: per-slot allowed token ids."""

    name: str
    node_slots: tuple[tuple[str, ...], ...]
    edge_slots: tuple[tuple[str, ...], ...]
    edges_enabled: bool = True

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValidationError(f"topology name {self.name!r} must be lowercase [a-z][a-z0-9_-]*")
        if not self.node_slots:
            raise ValidationError("topology has no node slots")
        for i, slot in enumerate(self.node_slots):
            if not slot:
                raise ValidationError(f"node slot {i} has an empty token set")
        for i, slot in enumerate(self.edge_slots):
            if not slot:
                raise ValidationError(f"edge slot {i} has an empty token set")
        if self.edges_enabled and not self.edge_slots:
            raise ValidationError("edges enabled but topology has no edge slots")

    @property
    def slots(self) -> tuple[tuple[str, ...], ...]:
        if self.edges_enabled:
            return self.node_slots + self.edge_slots
        return self.node_slots

    @classmethod
    def load(cls, path: str | Path, edges_enabled: bool | None = None) -> "Topology":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if not isinstance(doc, dict) or doc.get("schema") != TOPOLOGY_SCHEMA:
            raise ValidationError(f"{path}: expected schema {TOPOLOGY_SCHEMA!r}")
        for key in ("name", "node_slots", "edge_slots"):
            if key not in doc:
                raise ValidationError(f"{path}: missing key {key!r}")
        enabled = doc.get("edges_enabled", True) if edges_enabled is None else edges_enabled
        try:
            return cls(
                name=str(doc["name"]),
                node_slots=tuple(tuple(str(t) for t in slot) for slot in doc["node_slots"]),
                edge_slots=tuple(tuple(str(t) for t in slot) for slot in doc["edge_slots"]),
                edges_enabled=bool(enabled),
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(eq=False)
class Environment:
    """Topology + vocabulary bound together, with precomputed slot masks."""

    topology: Topology
    vocabulary: Vocabulary
    slot_masks: np.ndarray = field(init=False, repr=False)
    env_hash: str = field(init=False)

    def __post_init__(self):
        kind_by_slot = ["node"] * len(self.topology.node_slots)
        if self.topology.edges_enabled:
            kind_by_slot += ["edge"] * len(self.topology.edge_slots)
        masks = np.zeros((len(self.topology.slots), len(self.vocabulary)), dtype=bool)
        for s, slot in enumerate(self.topology.slots):
            for token_id in slot:
                idx = self.vocabulary.index.get(token_id)
                if idx is None:
                    raise ValidationError(f"slot {s}: token {token_id!r} not in vocabulary")
                if self.vocabulary[idx].kind != kind_by_slot[s]:
                    raise ValidationError(
                        f"slot {s}: token {token_id!r} has kind {self.vocabulary[idx].kind!r}, "
                        f"expected {kind_by_slot[s]!r}")
                masks[s, idx] = True
        masks.setflags(write=False)
        self.slot_masks = masks
        payload = {
            "topology": {
                "name": self.topology.name,
                "node_slots": [list(s) for s in self.topology.node_slots],
                "edge_slots": [list(s) for s in self.topology.edge_slots],
                "edges_enabled": self.topology.edges_enabled,
            },
            "vocabulary": self.vocabulary.canonical_payload(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        self.env_hash = hashlib.sha256(blob).hexdigest()

    @property
    def n_slots(self) -> int:
        return self.slot_masks.shape[0]

    def check_sequence(self, tokens: tuple[int, ...]) -> None:
        """Validate a full token sequence independently of the sampler."""
        if len(tokens) != self.n_slots:
            raise ValidationError(f"sequence has {len(tokens)} tokens, topology needs {self.n_slots}")
        for s, idx in enumerate(tokens):
            if not (0 <= idx < len(self.vocabulary)):
                raise ValidationError(f"slot {s}: token index {idx} out of range")
            if not self.slot_masks[s, idx]:
                raise ValidationError(
                    f"slot {s}: token {self.vocabulary[idx].token_id!r} not in the slot's allowed set")

    # -- enumeration ---------------------------------------------------------
    def count_terminals(self) -> int:
        n = 1
        for s in range(self.n_slots):
            n *= int(self.slot_masks[s].sum())
        return n

    def enumerate_terminals(self, bound: int = 1_000_000):
        """All terminal sequences in slot-wise index order."""
        total = self.count_terminals()
        if total > bound:
            raise EnumerationBoundError(f"{total} terminal states exceed the bound {bound}")
        choices = [np.flatnonzero(self.slot_masks[s]).tolist() for s in range(self.n_slots)]
        for combo in itertools.product(*choices):
            yield tuple(combo)

    # -- record syntax -------------------------------------------------------
    def format_assembly_record(self, tokens: tuple[int, ...]) -> str:
        self.check_sequence(tokens)
        ids = ",".join(self.vocabulary[i].token_id for i in tokens)
        return f"{self.topology.name}:{ids}"

    def parse_assembly_record(self, record: str) -> tuple[int, ...]:
        name, sep, rest = record.partition(":")
        if not sep:
            raise ValidationError(f"record {record!r} has no ':' separator")
        if name != self.topology.name:
            raise ValidationError(f"record names topology {name!r}, environment is {self.topology.name!r}")
        out = []
        for token_id in rest.split(","):
            idx = self.vocabulary.index.get(token_id.strip())
            if idx is None:
                raise ValidationError(f"unknown token {token_id.strip()!r} in record")
            out.append(idx)
        tokens = tuple(out)
        self.check_sequence(tokens)
        return tokens
