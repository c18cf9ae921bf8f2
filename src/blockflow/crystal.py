"""Periodic point-set geometry and the average-minimum-distance descriptor.

The descriptor's k-th entry is the mean, over motif points, of the distance
to the k-th nearest neighbor in the infinite periodic structure. Neighbor
search expands concentric shells of lattice images and stops only when every
unexplored image is provably farther than the current k-th candidate, so the
reported distances are exact, no cutoff heuristics.

CIF support is a P1-only subset read as CIF 1.1's token stream, in any legal
layout: cell parameters plus one atom-site loop with fractional coordinates.
A symmetry group beyond P1, a second data block, a save frame, a value of no tag
or loop, a tag of no value, or a loop of partial rows fails at name:line, not misread.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BlockflowError, ValidationError
from .files import read_text

# CIF 1.1's tokens (Hall, Allen & Brown, Acta Cryst. A47 (1991) 655), comments included. A quote
# closes only before whitespace; a ';' text field or a quote that never closes is an `open` token.
_TOKEN_RE = re.compile(r"""\s*(?:^;(?P<text>(?s:.*?))\n;|(?P<q>['"])(?P<quoted>.*?)(?P=q)(?=\s|\Z)"""
                       r"""|#.*|(?P<open>^;|['"])|(?P<tag>_\S*)"""
                       r"""|(?P<reserved>(?i:data_|loop_|save_|global_|stop_)\S*)|(?P<word>\S+))""",
                       re.MULTILINE)
_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eEdD][+-]?\d+)?)(?:\(\d+\))?$")
_IDENTITY_OP_RE = re.compile(r"^(?:1\s+)?\+?x\s*,\s*\+?y\s*,\s*\+?z$", re.IGNORECASE)

_SPACE_GROUP_TAGS = ("_symmetry_space_group_name_h-m", "_space_group_name_h-m_alt",
                     "_symmetry_space_group_name_hall")
_SPACE_GROUP_NUMBER_TAGS = ("_symmetry_int_tables_number", "_space_group_it_number")
_SYMOP_TAGS = ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz")

_FRACT_TAGS = ("_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z")
_CELL_TAGS = ("_cell_length_a", "_cell_length_b", "_cell_length_c",
              "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma")


def _parse_number(text: str, line: int, name: str) -> float:
    m = _NUMBER_RE.match(text.strip())
    if m is None:
        raise ValidationError(f"{name}:{line}: cannot parse number {text!r}")
    return float(m.group(1).replace("d", "e").replace("D", "e"))


def parse_cif(text: str, name: str = "<cif>") -> PeriodicPointSet:
    """Read the P1 subset of a CIF file into a point set; errors carry name:line positions.

    A `_tag` takes the next value. A `loop_` takes its header tags, then every
    value up to the next tag or reserved word, and fills its rows in order.
    """
    tags: dict[str, tuple[str, int]] = {}  # each value with its line
    loops: list[tuple[list[str], list[tuple[str, int]]]] = []  # header and values
    tag = loop = None  # the tag awaiting its value, with its line; the open loop
    line, at = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # a comment
            continue
        line += text.count("\n", at, m.start(kind))
        at, token = m.start(kind), m.group(kind)
        if kind == "open":
            raise ValidationError(f"{name}:{line}: {token!r} opens a value that never closes")
        elif tag is not None and kind in ("tag", "reserved"):
            break  # the pending tag has no value: refused below
        elif kind == "tag" and loop is not None and not loop[1]:
            loop[0].append(token.lower())
        elif kind == "tag":
            tag, loop = (token.lower(), line), None
        elif kind == "reserved" and token.lower() == "loop_":
            tag, loop = None, ([], [])
            loops.append(loop)
        elif kind == "reserved" and token[:5].lower() == "data_" and not (tags or loops):
            continue  # the file's one data block
        elif kind == "reserved":
            raise ValidationError(f"{name}:{line}: {token!r} is not supported: "
                                  "a file is read as one data block of tags and loops")
        elif tag is not None:
            tags[tag[0]], tag = (token, line), None
        elif loop is not None and loop[0]:
            loop[1].append((token, line))
        else:
            raise ValidationError(f"{name}:{line}: value {token!r} belongs to no tag or loop")
    if tag is not None:
        raise ValidationError(f"{name}:{tag[1]}: tag {tag[0]!r} has no value")

    for tag in _SPACE_GROUP_TAGS + _SPACE_GROUP_NUMBER_TAGS:
        if tag not in tags:
            continue
        value, line = tags[tag]
        if tag in _SPACE_GROUP_TAGS and value.replace(" ", "").upper() != "P1":
            raise ValidationError(f"{name}:{line}: only P1 structures are supported, "
                                  f"got space group {value!r}")
        if tag in _SPACE_GROUP_NUMBER_TAGS and _parse_number(value, line, name) != 1:
            raise ValidationError(f"{name}:{line}: only space group number 1 is supported")

    cell = []
    for tag in _CELL_TAGS:
        if tag not in tags:
            raise ValidationError(f"{name}: missing cell parameter {tag}")
        cell.append(_parse_number(*tags[tag], name))

    motif = []
    for header, values in loops:
        width = len(header)
        if len(values) % (width or 1):
            raise ValidationError(f"{name}:{values[-1][1]}: loop of {width} fields holds "
                                  f"{len(values)} values, not whole rows")
        if any(tag in _SYMOP_TAGS for tag in header):
            col = next(i for i, tag in enumerate(header) if tag in _SYMOP_TAGS)
            for op, line in values[col::width]:
                if not _IDENTITY_OP_RE.match(op.strip()):
                    raise ValidationError(f"{name}:{line}: symmetry operation {op!r} "
                                          "beyond identity; only P1 is supported")
        elif all(tag in header for tag in _FRACT_TAGS):
            cols = [header.index(tag) for tag in _FRACT_TAGS]
            motif = [[_parse_number(*values[i + c], name) for c in cols]
                     for i in range(0, len(values), width)]

    if not motif:
        raise ValidationError(f"{name}: no atom-site loop with fractional coordinates")
    try:
        return PeriodicPointSet(cell_basis(*cell), motif)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def cell_basis(a: float, b: float, c: float,
               alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Cell vectors as rows, a along x and b in the xy-plane. Angles in degrees."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not (value > 0):
            raise ValidationError(f"cell length {name} must be positive, got {value}")
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (0.0 < value < 180.0):
            raise ValidationError(f"cell angle {name} must be in (0, 180), got {value}")
    ca, cb, cg = (np.cos(np.radians(v)) for v in (alpha, beta, gamma))
    sg = np.sin(np.radians(gamma))
    cy = (ca - cb * cg) / sg
    arg = 1.0 - cb * cb - cy * cy
    if arg <= 0.0:
        raise ValidationError(f"cell angles ({alpha}, {beta}, {gamma}) do not close a 3D cell")
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
            raise ValidationError(f"basis must be 3x3, got {self.basis.shape}")
        if abs(np.linalg.det(self.basis)) <= 1e-6:
            raise ValidationError("basis is singular (|det| <= 1e-6)")
        if self.motif.ndim != 2 or self.motif.shape[1] != 3 or self.motif.shape[0] == 0:
            raise ValidationError("motif must be a non-empty (m, 3) array")


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
        raise ValidationError("k must be >= 1")
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
        raise BlockflowError("motif contains coincident points")
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
    return parse_cif(read_text(path), name=str(path))
