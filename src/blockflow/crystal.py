"""Periodic point-set geometry and the average-minimum-distance descriptor.

The descriptor's k-th entry is the mean, over motif points, of the distance
to the k-th nearest neighbor in the infinite periodic structure. Neighbor
search expands concentric shells of lattice images and stops only when every
unexplored image is provably farther than the current k-th candidate, so the
reported distances are exact, no cutoff heuristics.

CIF support is deliberately a P1-only subset: cell parameters plus one
atom-site loop with fractional coordinates. Files carrying a non-trivial
symmetry group fail loudly instead of being silently misread. `parse_cif`
returns a `PeriodicPointSet`, and `amd` returns a plain (k,) float64 array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BlockflowError, CoincidentPointsError,
                     DegenerateInputError, ValidationError)

_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eEdD][+-]?\d+)?)(?:\(\d+\))?$")
_IDENTITY_OP_RE = re.compile(r"^(?:1\s+)?\+?x\s*,\s*\+?y\s*,\s*\+?z$", re.IGNORECASE)

_SPACE_GROUP_TAGS = (
    "_symmetry_space_group_name_h-m",
    "_space_group_name_h-m_alt",
    "_symmetry_space_group_name_hall",
)
_SPACE_GROUP_NUMBER_TAGS = ("_symmetry_int_tables_number", "_space_group_it_number")
_SYMOP_TAGS = ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz")

_FRACT_TAGS = ("_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z")
_CELL_TAGS = ("_cell_length_a", "_cell_length_b", "_cell_length_c",
              "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma")


def _split_fields(line: str) -> list[str]:
    # quoted values ('P 1') count as one field
    out = []
    for piece in re.findall(r"'[^']*'|\"[^\"]*\"|\S+", line):
        if piece[0] in "'\"" and piece[-1] == piece[0] and len(piece) >= 2:
            piece = piece[1:-1]
        out.append(piece)
    return out


def _parse_number(text: str, where: str) -> float:
    m = _NUMBER_RE.match(text.strip())
    if m is None:
        raise ValidationError(f"{where}: cannot parse number {text!r}")
    return float(m.group(1).replace("d", "e").replace("D", "e"))


def parse_cif(text: str, name: str = "<cif>") -> PeriodicPointSet:
    """Read the P1 subset of a CIF file into a point set; errors carry name:line positions.

    One pass sorts each line into one of four kinds: `loop_`, a header tag of
    the open loop, a row of the open loop, or anything else. Anything else
    closes the open loop, and a `_tag value` line is recorded as a tag.
    """
    tags: dict[str, tuple[str, int]] = {}
    loops: list[tuple[list[str], list[tuple[int, list[str]]]]] = []
    loop = None  # the open loop's (header, rows)
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if s.lower() == "loop_":
            loop = ([], [])
            loops.append(loop)
        elif loop is not None and s.startswith("_") and not loop[1]:
            loop[0].append(_split_fields(s)[0].lower())
        elif loop is not None and s and s[0] not in "#_" and not s.startswith("data_"):
            loop[1].append((lineno, _split_fields(s)))
        else:
            loop = None
            if s.startswith("_"):
                fields = _split_fields(s)
                if len(fields) >= 2:
                    tags[fields[0].lower()] = (" ".join(fields[1:]), lineno)

    for tag in _SPACE_GROUP_TAGS:
        if tag in tags:
            value, lineno = tags[tag]
            if value.replace(" ", "").upper() != "P1":
                raise ValidationError(
                    f"{name}:{lineno}: only P1 structures are supported, got space group {value!r}")
    for tag in _SPACE_GROUP_NUMBER_TAGS:
        if tag in tags:
            value, lineno = tags[tag]
            if _parse_number(value, f"{name}:{lineno}") != 1:
                raise ValidationError(f"{name}:{lineno}: only space group number 1 is supported")

    cell = []
    for tag in _CELL_TAGS:
        if tag not in tags:
            raise ValidationError(f"{name}: missing cell parameter {tag}")
        value, lineno = tags[tag]
        cell.append(_parse_number(value, f"{name}:{lineno}"))

    motif = []
    for header, rows in loops:
        if any(tag in _SYMOP_TAGS for tag in header):
            col = next(i for i, tag in enumerate(header) if tag in _SYMOP_TAGS)
            for lineno, row in rows:
                op = row[col] if col < len(row) else ""
                if not _IDENTITY_OP_RE.match(op.strip()):
                    raise ValidationError(f"{name}:{lineno}: symmetry operation {op!r} "
                                          "beyond identity; only P1 is supported")
        elif all(tag in header for tag in _FRACT_TAGS):
            cols = [header.index(tag) for tag in _FRACT_TAGS]
            motif = []
            for lineno, row in rows:
                if len(row) != len(header):
                    raise ValidationError(f"{name}:{lineno}: atom row has {len(row)} fields, "
                                          f"loop declares {len(header)}")
                motif.append([_parse_number(row[c], f"{name}:{lineno}") for c in cols])

    if not motif:
        raise ValidationError(f"{name}: no atom-site loop with fractional coordinates")
    try:
        return PeriodicPointSet(cell_basis(*cell), motif)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{name}: {exc}") from None


def cell_basis(a: float, b: float, c: float,
               alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Cell vectors as rows, a along x and b in the xy-plane. Angles in degrees."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not (value > 0):
            raise DegenerateInputError(f"cell length {name} must be positive, got {value}")
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (0.0 < value < 180.0):
            raise DegenerateInputError(f"cell angle {name} must be in (0, 180), got {value}")
    ca, cb, cg = (np.cos(np.radians(v)) for v in (alpha, beta, gamma))
    sg = np.sin(np.radians(gamma))
    cy = (ca - cb * cg) / sg
    arg = 1.0 - cb * cb - cy * cy
    if arg <= 0.0:
        raise DegenerateInputError(f"cell angles ({alpha}, {beta}, {gamma}) do not close a 3D cell")
    basis = np.array([
        [a, 0.0, 0.0],
        [b * cg, b * sg, 0.0],
        [c * cb, c * cy, c * np.sqrt(arg)],
    ])
    return basis


@dataclass
class PeriodicPointSet:
    basis: np.ndarray  # (3,3), rows are the cell vectors in Angstrom
    motif: np.ndarray  # (m,3) fractional, in [0, 1)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.float64)
        # np.mod(-1e-20, 1.0) rounds to 1.0, which the second np.mod sends to 0.0
        self.motif = np.mod(np.mod(np.asarray(self.motif, dtype=np.float64), 1.0), 1.0)
        if self.basis.shape != (3, 3):
            raise DegenerateInputError(f"basis must be 3x3, got {self.basis.shape}")
        if abs(np.linalg.det(self.basis)) <= 1e-6:
            raise DegenerateInputError("basis is singular (|det| <= 1e-6)")
        if self.motif.ndim != 2 or self.motif.shape[1] != 3 or self.motif.shape[0] == 0:
            raise DegenerateInputError("motif must be a non-empty (m, 3) array")


# Shells are kept up to radius 16, 0.9 MB in all: a thin cell can walk to
# radius 4,096, and the (2r+1)^3 offsets of every radius must not pile up.
_CACHED_SHELL_RADIUS = 16
_shells: dict[int, np.ndarray] = {}


def _shell_vectors(radius: int) -> np.ndarray:
    """Integer lattice offsets of Chebyshev norm exactly `radius`: a read-only float64 array."""
    if radius in _shells:
        return _shells[radius]
    rng = np.arange(-radius, radius + 1, dtype=np.float64)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    shell = grid[np.abs(grid).max(axis=1) == radius]
    shell.flags.writeable = False
    if radius <= _CACHED_SHELL_RADIUS:
        _shells[radius] = shell
    return shell


def kth_nearest_distances(ps: PeriodicPointSet, k: int) -> np.ndarray:
    """(m, k) sorted distances from each motif point into the infinite set.

    Correctness of the stopping rule: a difference vector reaching a cell at
    Chebyshev radius >= r+1 has some integer coordinate of magnitude > r
    (fractional offsets lie in (-1, 1)), and any Cartesian vector p satisfies
    |p| >= |coord_i(p)| * h_min where h_min = min_i 1 / ||column_i(B^-1)||.
    So once every current k-th distance is strictly below r * h_min, no
    unexplored image can matter.
    """
    if k < 1:
        raise DegenerateInputError("k must be >= 1")
    inv = np.linalg.inv(ps.basis)
    h_min = 1.0 / np.linalg.norm(inv, axis=0).max()
    cart = ps.motif @ ps.basis
    m = cart.shape[0]
    tol = 1e-9 * h_min
    best = np.empty((m, 0))
    radius = 0
    while True:
        offsets = _shell_vectors(radius)
        images = (offsets[:, None, :] + ps.motif[None, :, :]).reshape(-1, 3) @ ps.basis
        diff = images[None, :, :] - cart[:, None, :]
        diff *= diff  # then sqrt((x^2 + y^2) + z^2), the order np.linalg.norm sums in
        best = np.concatenate([best, np.sqrt(diff[..., 0] + diff[..., 1] + diff[..., 2])], axis=1)
        if best.shape[1] > k + 1:  # keep the k+1 smallest, sorted once after the loop
            best = np.partition(best, k, axis=1)[:, :k + 1]
        if best.shape[1] == k + 1 and best.max() < radius * h_min:
            break
        radius += 1
        if radius > 4096:
            raise BlockflowError("lattice-image search did not converge")
    best.sort(axis=1)
    if best[:, 0].max() > tol:
        raise BlockflowError("self-image distance is not zero; numerical inconsistency")
    if best[:, 1].min() < tol:
        raise CoincidentPointsError("motif contains coincident points")
    return best[:, 1:k + 1]


def amd(ps: PeriodicPointSet, k: int = 100) -> np.ndarray:
    """The (k,) descriptor in Angstrom: column means of the per-point nearest-distance matrix."""
    return kth_nearest_distances(ps, k).mean(axis=0)


def _as_matrix(descriptors) -> np.ndarray:
    rows = [np.asarray(d, dtype=np.float64) for d in descriptors]
    lengths = {r.shape[0] for r in rows}
    if len(lengths) > 1:
        raise ValidationError(f"descriptors have mixed lengths {sorted(lengths)}")
    return np.asarray(rows, dtype=np.float64)


def descriptor_distance_matrix(descriptors) -> np.ndarray:
    """Pairwise Euclidean distances between descriptor vectors, one row at a
    time: memory holds the n x n result and one n x k row of differences."""
    mat = _as_matrix(descriptors)
    out = np.empty((mat.shape[0], mat.shape[0]))
    for row, dist in zip(mat, out):
        diff = row - mat
        np.sqrt((diff * diff).sum(axis=1), out=dist)
    return out


def novelty_score(candidates, references) -> np.ndarray:
    """Per-candidate Euclidean distance to the nearest reference descriptor."""
    refs = _as_matrix(references)
    if refs.shape[0] == 0:
        raise ValidationError("reference descriptor set is empty")
    cands = _as_matrix(candidates)
    if cands.shape[1] != refs.shape[1]:
        raise ValidationError(
            f"candidate length {cands.shape[1]} != reference length {refs.shape[1]}")
    diffs = (row - refs for row in cands)  # one candidate's differences at a time
    return np.array([np.sqrt((diff * diff).sum(axis=1)).min() for diff in diffs])


def load_cif_file(path: str | Path) -> PeriodicPointSet:
    path = Path(path)
    return parse_cif(path.read_text(), name=str(path))
