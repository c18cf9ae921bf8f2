import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockflow import (PeriodicPointSet, amd, cell_basis, descriptor_distance_matrix,
                       kth_nearest_distances, load_cif_file, novelty_score, parse_cif)
from blockflow import crystal
from blockflow.crystal import _parse_number
from blockflow.errors import BlockflowError, ValidationError
from conftest import FIXTURES


def cif_text(a=10.0, b=10.0, c=10.0, alpha=90.0, beta=90.0, gamma=90.0,
             atoms=((0.0, 0.0, 0.0),), extra=""):
    lines = [
        "data_test",
        f"_cell_length_a {a}",
        f"_cell_length_b {b}",
        f"_cell_length_c {c}",
        f"_cell_angle_alpha {alpha}",
        f"_cell_angle_beta {beta}",
        f"_cell_angle_gamma {gamma}",
        "_symmetry_space_group_name_H-M 'P 1'",
        extra,
        "loop_",
        "_atom_site_label",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    for i, (x, y, z) in enumerate(atoms):
        lines.append(f"A{i + 1} {x} {y} {z}")
    return "\n".join(lines) + "\n"


# -- number and CIF parsing ---------------------------------------------------


def test_parse_number_uncertainty_and_exponents():
    assert _parse_number("10.5(3)", 1, "x") == 10.5
    assert _parse_number("-0.25", 1, "x") == -0.25
    assert _parse_number("1.2d-3", 1, "x") == pytest.approx(1.2e-3)
    assert _parse_number("3.4E2(1)", 1, "x") == 340.0
    with pytest.raises(ValidationError, match="^here:9: cannot parse number 'abc'$"):
        _parse_number("abc", 9, "here")


def test_parse_cif_cubic_trivial():
    ps = parse_cif(cif_text(atoms=((0.25, 0.5, 0.75),)))
    assert np.array_equal(ps.basis, cell_basis(10.0, 10.0, 10.0, 90.0, 90.0, 90.0))
    assert np.allclose(ps.motif, [[0.25, 0.5, 0.75]])
    assert np.allclose(ps.basis, np.diag([10.0, 10.0, 10.0]), atol=1e-12)


def test_parse_cif_wraps_out_of_cell_coordinates():
    ps = parse_cif(cif_text(atoms=((1.25, -0.25, 2.0),)))
    assert np.allclose(ps.motif, [[0.25, 0.75, 0.0]])


def test_parse_cif_accepts_identity_symop():
    extra = "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'"
    ps = parse_cif(cif_text(extra=extra))
    assert ps.motif.shape == (1, 3)


def test_parse_cif_accepts_space_group_number_one():
    ps = parse_cif(cif_text(extra="_symmetry_Int_Tables_number 1"))
    assert ps.motif.shape == (1, 3)


def test_parse_cif_uncertainty_cell_values():
    ps = parse_cif(cif_text(a="10.5(3)"))
    assert ps.basis[0, 0] == 10.5  # a lies along x


def test_parse_cif_rejects_non_p1_name():
    text = cif_text().replace("'P 1'", "'P 21/c'")
    with pytest.raises(ValidationError, match="P1"):
        parse_cif(text, name="f.cif")


def test_parse_cif_rejects_space_group_number():
    with pytest.raises(ValidationError, match="space group number 1"):
        parse_cif(cif_text(extra="_space_group_IT_number 14"))


def test_parse_cif_rejects_extra_symops_with_line_number():
    extra = "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n'-x, -y, -z'"
    with pytest.raises(ValidationError, match=r"f\.cif:12"):
        parse_cif(cif_text(extra=extra), name="f.cif")


def test_parse_cif_missing_cell_tag():
    text = "\n".join(line for line in cif_text().splitlines()
                     if not line.startswith("_cell_length_b"))
    with pytest.raises(ValidationError, match="_cell_length_b"):
        parse_cif(text)


def test_parse_cif_no_atom_loop():
    text = "\n".join(cif_text().splitlines()[:8])
    with pytest.raises(ValidationError, match="atom-site"):
        parse_cif(text)


def test_parse_cif_bad_coordinate_carries_line_number():
    text = cif_text(atoms=((0.1, 0.2, 0.3),)).replace("A1 0.1 0.2 0.3", "A1 0.1 oops 0.3")
    with pytest.raises(ValidationError, match=r"f\.cif:15"):
        parse_cif(text, name="f.cif")


def test_parse_cif_short_atom_row():
    # three values cannot fill a row of four fields; the loop's last value is on line 15
    text = cif_text().replace("A1 0.0 0.0 0.0", "A1 0.0 0.0")
    with pytest.raises(ValidationError, match=r"^f\.cif:15: loop of 4 fields holds 3 values, not whole rows$"):
        parse_cif(text, "f.cif")


# -- the scanner: layouts a CIF may take --------------------------------------


def atom_loop(*rows, label="_atom_site_label"):
    return "\n".join(["loop_", label, "_atom_site_fract_x", "_atom_site_fract_y",
                      "_atom_site_fract_z", *rows])


CELL_TAGS = "\n".join(["_cell_length_a 7.0", "_cell_length_b 8.0", "_cell_length_c 9.0",
                       "_cell_angle_alpha 90", "_cell_angle_beta 90", "_cell_angle_gamma 90"])


@pytest.mark.parametrize("closer", ["# a comment", "", "   ", "data_second"])
def test_parse_cif_a_comment_blank_or_data_line_ends_a_loop(closer):
    # none ends the loop: a comment or a blank line lies between two of its
    # values, and a second data block is refused
    text = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3"), closer, "A2 0.5 0.5 0.5"])
    if closer.startswith("data_"):
        with pytest.raises(ValidationError, match=r"^f\.cif:13: 'data_second' is not supported"):
            parse_cif(text, "f.cif")
        return
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])


def test_parse_cif_reads_a_tag_right_after_loop_rows():
    text = "\n".join(["data_x", atom_loop("A1 0.1 0.2 0.3", "A2 0.6 0.7 0.8"), CELL_TAGS])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.basis, cell_basis(7.0, 8.0, 9.0, 90.0, 90.0, 90.0))
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])


def test_parse_cif_checks_a_symop_loop_after_the_atom_loop():
    symops = "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n'-x, y+1/2, -z'"
    text = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3"), symops])
    with pytest.raises(ValidationError, match=r"^f\.cif:16: symmetry operation '-x, y\+1/2, -z'"):
        parse_cif(text, "f.cif")
    ps = parse_cif(text.replace("'-x, y+1/2, -z'", "'+x, +y, +z'"), "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3]])


def test_parse_cif_skips_an_empty_loop():
    text = "\n".join([CELL_TAGS, "loop_", atom_loop("A1 0.1 0.2 0.3"), "loop_"])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3]])


def test_parse_cif_a_blank_line_after_loop_closes_it():
    # it does not: a blank line is whitespace, so the header and rows after it are the loop's
    text = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3").replace("loop_", "loop_\n")])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3]])


def test_parse_cif_reads_uppercase_loop_and_tags():
    text = "\n".join([CELL_TAGS.upper(), atom_loop("A1 0.1 0.2 0.3").upper(),
                      "_SYMMETRY_SPACE_GROUP_NAME_H-M 'P 1'"])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.basis, cell_basis(7.0, 8.0, 9.0, 90.0, 90.0, 90.0))
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValidationError, match=r"^f\.cif:13: only P1"):
        parse_cif(text.replace("'P 1'", "'P -1'"), "f.cif")


def test_parse_cif_reads_indented_lines():
    flat = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3", "A2 0.6 0.7 0.8")])
    indented = "\n".join("  " + line + " \t" for line in flat.splitlines())
    ps, expect = parse_cif(indented, "f.cif"), parse_cif(flat, "f.cif")
    assert np.array_equal(ps.basis, expect.basis)
    assert np.array_equal(ps.motif, expect.motif)


def test_parse_cif_reads_a_quoted_label_with_a_space():
    text = "\n".join([CELL_TAGS, atom_loop("'Fe 1' 0.1 0.2 0.3", '"O 2" 0.6 0.7 0.8')])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])
    # unquoted, the label is two values, and the loop's nine values fill no whole rows of four
    with pytest.raises(ValidationError, match=r"^f\.cif:13: loop of 4 fields holds 9 values, not whole rows$"):
        parse_cif(text.replace("'Fe 1'", "Fe 1"), "f.cif")


def test_parse_cif_the_last_atom_loop_wins():
    text = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3"),
                      atom_loop("B1 0.4 0.5 0.6", "B2 0.7 0.8 0.9", label="_atom_site_type_symbol")])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
    # an earlier loop's bad row is still read, and reported first
    with pytest.raises(ValidationError, match=r"^f\.cif:12: cannot parse number 'x'"):
        parse_cif(text.replace("A1 0.1", "A1 x"), "f.cif")


def test_parse_cif_a_bad_cell_value_wins_over_a_missing_cell_tag():
    text = cif_text(a="oops")
    no_gamma = "\n".join(line for line in text.splitlines() if "_cell_angle_gamma" not in line)
    with pytest.raises(ValidationError, match=r"^f\.cif:2: cannot parse number 'oops'"):
        parse_cif(no_gamma, "f.cif")
    no_b = "\n".join(line for line in cif_text(gamma="oops").splitlines()
                     if "_cell_length_b" not in line)
    with pytest.raises(ValidationError, match=r"^f\.cif: missing cell parameter _cell_length_b"):
        parse_cif(no_b, "f.cif")


def test_parse_cif_refuses_a_degenerate_cell():
    with pytest.raises(ValidationError, match="do not close a 3D cell"):
        parse_cif(cif_text(alpha=30.0, beta=30.0, gamma=120.0), "f.cif")


@pytest.mark.parametrize("cell, message", [
    (dict(alpha=30.0, beta=30.0, gamma=120.0),
     "cell angles (30.0, 30.0, 120.0) do not close a 3D cell"),
    (dict(a=0.0), "cell length a must be positive, got 0.0"),
])
def test_parse_cif_names_the_file_for_a_degenerate_cell(cell, message):
    with pytest.raises(ValidationError) as err:
        parse_cif(cif_text(**cell), "f.cif")
    assert str(err.value) == f"f.cif: {message}"


# -- the token stream: what CIF 1.1 allows is read, and what it does not is refused


def test_parse_cif_a_text_field_is_one_value_whatever_its_lines_hold():
    field = "_publ_section_title\n;\n_cell_length_a 12.0\nloop_\n_atom_site_fract_x\n0.9\n;"
    text = "\n".join([CELL_TAGS, field, atom_loop("A1 0.1 0.2 0.3")])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.basis, cell_basis(7.0, 8.0, 9.0, 90.0, 90.0, 90.0))
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3]])


def test_parse_cif_reads_trailing_comments():
    text = "\n".join([CELL_TAGS.replace("_cell_length_a 7.0", "_cell_length_a 7.0 # angstrom"),
                      atom_loop("A1 0.1 0.2 0.3  # the first atom", "A2 0.6 0.7 0.8\t#")])
    ps = parse_cif(text, "f.cif")
    assert ps.basis[0, 0] == 7.0
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])
    # '#' inside a word does not start a comment
    with pytest.raises(ValidationError, match=r"^f\.cif:13: cannot parse number '0\.8#'"):
        parse_cif(text.replace("0.8\t#", "0.8#"), "f.cif")


def test_parse_cif_reads_a_value_on_the_next_line():
    text = "\n".join([CELL_TAGS.replace("_cell_length_a 7.0", "_cell_length_a\n\n  7.0"),
                      atom_loop("A1 0.1 0.2 0.3")])
    ps = parse_cif(text, "f.cif")
    assert ps.basis[0, 0] == 7.0
    # a bad value is named at its own line
    with pytest.raises(ValidationError, match=r"^f\.cif:3: cannot parse number 'x'"):
        parse_cif(text.replace("  7.0", "  x"), "f.cif")


def test_parse_cif_reads_wrapped_rows_and_a_one_line_header():
    header = "loop_ _atom_site_label _atom_site_fract_x\n_atom_site_fract_y _atom_site_fract_z"
    text = "\n".join([CELL_TAGS, header, "A1 0.1", "0.2 0.3 A2", "0.6 0.7 0.8"])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])


def test_parse_cif_a_quote_closes_only_before_whitespace():
    text = "\n".join([CELL_TAGS, atom_loop("'O1'' 0.1 0.2 0.3", "\"N \"2\" 0.6 0.7 0.8",
                                           "'C3' 0.4 0.5 0.6")])
    ps = parse_cif(text, "f.cif")
    assert np.array_equal(ps.motif, [[0.1, 0.2, 0.3], [0.6, 0.7, 0.8], [0.4, 0.5, 0.6]])
    # a quoted reserved word or tag is a plain value
    text = "\n".join([CELL_TAGS, atom_loop("'loop_' 0.1 0.2 0.3", "'_cell_length_a' 0.6 0.7 0.8")])
    assert parse_cif(text, "f.cif").motif.shape == (2, 3)


@pytest.mark.parametrize("old, new, message", [
    ("_cell_length_a 7.0", "_cell_length_a 10 12", r"^f\.cif:1: value '12' belongs to no tag or loop"),
    ("_cell_angle_gamma 90", "_cell_angle_gamma 90\n_symmetry_space_group_name_H-M P 1",
     r"^f\.cif:7: value '1' belongs to no tag or loop"),
    ("_cell_angle_gamma 90", "_cell_angle_gamma 90\nloop_\n0.5",
     r"^f\.cif:8: value '0\.5' belongs to no tag or loop"),
    ("_cell_length_c 9.0", "_cell_length_c 9.0\nsave_frame", r"^f\.cif:4: 'save_frame' is not supported"),
    ("_cell_length_c 9.0", "_cell_length_c 9.0\nGLOBAL_", r"^f\.cif:4: 'GLOBAL_' is not supported"),
    ("_cell_length_c 9.0", "_cell_length_c 9.0\nstop_", r"^f\.cif:4: 'stop_' is not supported"),
    ("_cell_length_c 9.0", "_cell_length_c 'x\n9.0", r"^f\.cif:3: \"'\" opens a value that never closes"),
    ("_cell_length_c 9.0", "_cell_length_c\n;\n9.0", r"^f\.cif:4: ';' opens a value that never closes"),
], ids=["two_values", "unquoted_p_1", "headerless_loop", "save_frame", "global", "stop",
        "open_quote", "open_text_field"])
def test_parse_cif_refuses_what_cif_does_not_allow(old, new, message):
    text = "\n".join([CELL_TAGS, atom_loop("A1 0.1 0.2 0.3")])
    assert old in text
    with pytest.raises(ValidationError, match=message):
        parse_cif(text.replace(old, new), "f.cif")


@pytest.mark.parametrize("text, message", [
    ("data_x\n_symmetry_space_group_name_H-M\n" + CELL_TAGS.replace("7.0", "10"),
     r"^f\.cif:2: tag '_symmetry_space_group_name_h-m' has no value$"),
    (CELL_TAGS + "\n_symmetry_Int_Tables_number\n" + atom_loop("A1 0.1 0.2 0.3"),
     r"^f\.cif:7: tag '_symmetry_int_tables_number' has no value$"),
    (CELL_TAGS + "\n" + atom_loop("A1 0.1 0.2 0.3") + "\n_symmetry_space_group_name_H-M  # P 1",
     r"^f\.cif:13: tag '_symmetry_space_group_name_h-m' has no value$"),
    ("_cell_length_a\ndata_x\n" + CELL_TAGS, r"^f\.cif:1: tag '_cell_length_a' has no value$"),
    (CELL_TAGS + "\n_cell_measurement_temperature\nsave_x", r"^f\.cif:7: tag '_cell_measurement_"
                                                              r"temperature' has no value$"),
], ids=["before_a_tag", "before_loop", "at_the_end", "before_data", "before_save"])
def test_parse_cif_refuses_a_tag_with_no_value(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_cif(text, "f.cif")


GAPS = (" ", "\t", "\n", "  # a note\n", "\n\n#_cell_length_a 99\n   ")
LABELS = ("X{}", "'X {}'", "\"X'{}\"", "'X{}''")


@settings(max_examples=60, deadline=None)
@given(cell=st.tuples(*[st.floats(2.0, 20.0)] * 3, *[st.floats(70.0, 110.0)] * 3),
       atoms=st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=1, max_size=4),
       data=st.data())
def test_parse_cif_reads_every_legal_layout_as_the_canonical_one(cell, atoms, data):
    def gap():
        return data.draw(st.sampled_from(GAPS))

    tags = [f"_cell_{name} " for name in ("length_a", "length_b", "length_c",
                                          "angle_alpha", "angle_beta", "angle_gamma")]
    parts = [f"{tag}{gap()}{value!r}\n" for tag, value in zip(tags, cell)]
    parts.append("_symmetry_space_group_name_H-M 'P 1'\n")
    parts.append("_publ_section_title\n;\n_cell_length_a 99\nloop_\n_atom_site_fract_x\n;\n")
    loop = ["loop_", "_atom_site_label", "_atom_site_fract_x", "_atom_site_fract_y",
            "_atom_site_fract_z"]
    for i, xyz in enumerate(atoms):
        loop += [data.draw(st.sampled_from(LABELS)).format(i + 1), *map(repr, xyz)]
    parts.append("".join(token + gap() for token in loop) + "\n")
    order = data.draw(st.permutations(range(len(parts))))
    text = "data_layout # a comment\n" + "".join(parts[i] for i in order)
    ps = parse_cif(text, "f.cif")
    expect = parse_cif(cif_text(*cell, atoms=atoms), "f.cif")
    assert np.array_equal(ps.basis, expect.basis)
    assert np.array_equal(ps.motif, expect.motif)


# -- cell geometry ------------------------------------------------------------


def test_cell_basis_monoclinic_textbook():
    a, b, c, beta = 5.0, 6.0, 7.0, 100.0
    basis = cell_basis(a, b, c, 90.0, beta, 90.0)
    cb, sb = math.cos(math.radians(beta)), math.sin(math.radians(beta))
    assert np.allclose(basis, [[5, 0, 0], [0, 6, 0], [7 * cb, 0, 7 * sb]], atol=1e-12)
    assert np.linalg.det(basis) == pytest.approx(a * b * c * sb, rel=1e-12)


def test_cell_basis_triclinic_geometry_recovered():
    a, b, c = 4.0, 5.5, 6.25
    al, be, ga = 75.0, 85.0, 110.0
    basis = cell_basis(a, b, c, al, be, ga)
    va, vb, vc = basis
    assert np.linalg.norm(va) == pytest.approx(a, rel=1e-12)
    assert np.linalg.norm(vb) == pytest.approx(b, rel=1e-12)
    assert np.linalg.norm(vc) == pytest.approx(c, rel=1e-12)

    def angle(u, v):
        return math.degrees(math.acos(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))

    assert angle(vb, vc) == pytest.approx(al, rel=1e-10)
    assert angle(va, vc) == pytest.approx(be, rel=1e-10)
    assert angle(va, vb) == pytest.approx(ga, rel=1e-10)
    ca, cb2, cg = (math.cos(math.radians(x)) for x in (al, be, ga))
    volume = a * b * c * math.sqrt(1 - ca * ca - cb2 * cb2 - cg * cg + 2 * ca * cb2 * cg)
    assert np.linalg.det(basis) == pytest.approx(volume, rel=1e-12)


@pytest.mark.parametrize("bad, message", [
    (dict(a=0.0), "cell length a must be positive, got 0.0"),
    (dict(b=-1.0), "cell length b must be positive, got -1.0"),
    (dict(alpha=0.0), r"cell angle alpha must be in \(0, 180\), got 0.0"),
    (dict(beta=180.0), r"cell angle beta must be in \(0, 180\), got 180.0"),
    (dict(alpha=30.0, beta=30.0, gamma=120.0), "do not close a 3D cell"),
])
def test_cell_basis_degenerate_inputs(bad, message):
    kw = dict(a=3.0, b=3.0, c=3.0, alpha=90.0, beta=90.0, gamma=90.0)
    kw.update(bad)
    with pytest.raises(ValidationError, match=message):
        cell_basis(**kw)


def test_point_set_validation():
    with pytest.raises(ValidationError, match="singular"):
        PeriodicPointSet(np.zeros((3, 3)), [[0, 0, 0]])
    with pytest.raises(ValidationError, match=r"motif must be a non-empty \(m, 3\) array"):
        PeriodicPointSet(np.eye(3), np.empty((0, 3)))
    ps = PeriodicPointSet(np.eye(3), [[1.5, -0.25, 0.0]])
    assert np.allclose(ps.motif, [[0.5, 0.75, 0.0]])


def test_a_motif_read_from_a_cif_matches_the_same_motif_given_directly():
    # np.mod(-1e-20, 1.0) rounds to 1.0: both paths must land on 0.0, inside [0, 1)
    motif = [[-1e-20, 0.0, 0.0], [0.25, -0.0, 1.0 - 2.0**-53]]
    direct = PeriodicPointSet(5.0 * np.eye(3), motif).motif
    read = parse_cif(cif_text(a=5.0, b=5.0, c=5.0, atoms=motif)).motif
    assert np.array_equal(direct, read)
    assert np.all((direct >= 0.0) & (direct < 1.0))


# -- exact neighbor distances -------------------------------------------------


def test_simple_cubic_shells():
    ps = PeriodicPointSet(3.0 * np.eye(3), [[0.0, 0.0, 0.0]])
    d = kth_nearest_distances(ps, 18)
    # 6 face neighbors at a, 12 edge neighbors at a*sqrt(2)
    assert np.allclose(d[0, :6], 3.0, atol=1e-9)
    assert np.allclose(d[0, 6:18], 3.0 * math.sqrt(2.0), atol=1e-9)
    desc = amd(ps, 7)
    assert desc.shape == (7,) and desc.dtype == np.float64
    assert np.allclose(desc, [3, 3, 3, 3, 3, 3, 3 * math.sqrt(2)], atol=1e-9)


def test_body_centered_two_point_motif():
    # cube side 2 with a center point: 8 neighbors at sqrt(3), then 6 at 2
    ps = PeriodicPointSet(2.0 * np.eye(3), [[0, 0, 0], [0.5, 0.5, 0.5]])
    d = kth_nearest_distances(ps, 14)
    expect = [math.sqrt(3.0)] * 8 + [2.0] * 6
    assert np.allclose(d[0], expect, atol=1e-9)
    assert np.allclose(d[1], expect, atol=1e-9)
    assert np.allclose(amd(ps, 14), expect, atol=1e-9)


def test_rows_are_sorted_and_k_shaped():
    ps = PeriodicPointSet(cell_basis(3.0, 4.0, 5.0, 80.0, 95.0, 100.0),
                          [[0.1, 0.2, 0.3], [0.6, 0.7, 0.15], [0.35, 0.9, 0.55]])
    d = kth_nearest_distances(ps, 25)
    assert d.shape == (3, 25)
    assert np.all(np.diff(d, axis=1) >= -1e-12)
    assert d.min() > 0.0


def test_coincident_points_rejected():
    with pytest.raises(BlockflowError, match="motif contains coincident points") as err:
        kth_nearest_distances(PeriodicPointSet(np.eye(3) * 4, [[0, 0, 0], [1.0, 0, 0]]), 3)
    assert not isinstance(err.value, ValidationError)
    with pytest.raises(BlockflowError, match="motif contains coincident points") as err:
        amd(PeriodicPointSet(np.eye(3) * 4, [[0.2, 0.2, 0.2], [0.2, 0.2, 0.2]]), 3)
    assert not isinstance(err.value, ValidationError)


def test_k_validation():
    ps = PeriodicPointSet(np.eye(3), [[0, 0, 0]])
    with pytest.raises(ValidationError, match="k must be >= 1"):
        kth_nearest_distances(ps, 0)


def test_supercell_invariance():
    base = PeriodicPointSet(cell_basis(3.0, 3.5, 4.0, 85.0, 92.0, 101.0),
                            [[0.15, 0.3, 0.45], [0.7, 0.05, 0.8]])
    ref = amd(base, 20)
    for scale in ((2, 1, 1), (1, 2, 1), (2, 2, 2)):
        s = np.array(scale, dtype=float)
        motif = []
        for shift in np.ndindex(*scale):
            for p in base.motif:
                motif.append((p + np.array(shift)) / s)
        doubled = PeriodicPointSet(base.basis * s[:, None], motif)
        assert np.allclose(amd(doubled, 20), ref, atol=1e-9), scale


def test_translation_and_permutation_invariance():
    basis = cell_basis(3.0, 4.0, 3.5, 90.0, 104.0, 90.0)
    motif = np.array([[0.1, 0.2, 0.3], [0.55, 0.65, 0.05], [0.9, 0.4, 0.7]])
    ref = amd(PeriodicPointSet(basis, motif), 15)
    shifted = amd(PeriodicPointSet(basis, motif + [0.37, 0.81, 0.29]), 15)
    permuted = amd(PeriodicPointSet(basis, motif[::-1]), 15)
    assert np.allclose(shifted, ref, atol=1e-9)
    assert np.allclose(permuted, ref, rtol=1e-14, atol=0.0)


def brute_force_kth(ps: PeriodicPointSet, k: int, box: int) -> np.ndarray:
    """Independent oracle: enumerate every image in a fixed Chebyshev box."""
    rng = np.arange(-box, box + 1)
    offsets = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    images = (offsets[:, None, :] + ps.motif[None, :, :]).reshape(-1, 3) @ ps.basis
    cart = ps.motif @ ps.basis
    dists = np.sort(np.linalg.norm(images[None, :, :] - cart[:, None, :], axis=2), axis=1)
    # images outside the box are at Cartesian distance >= box * min cell height,
    # computed here from face areas rather than the implementation's B inverse
    vol = abs(np.linalg.det(ps.basis))
    heights = [vol / np.linalg.norm(np.cross(ps.basis[j], ps.basis[l]))
               for j, l in ((1, 2), (0, 2), (0, 1))]
    assert dists[:, k].max() < box * min(heights), "oracle box too small"
    return dists[:, 1:k + 1]


BRUTE_FORCE_CELLS = [
    (3.0, 3.0, 3.0, 90.0, 90.0, 90.0),
    (2.5, 3.5, 4.5, 80.0, 95.0, 110.0),
    (2.0, 5.0, 3.0, 90.0, 120.0, 90.0),
    (4.0, 4.0, 4.0, 60.0, 60.0, 60.0),
]
BRUTE_FORCE_MOTIF = [[0.12, 0.34, 0.56], [0.78, 0.11, 0.42]]


def test_matches_brute_force_box_oracle():
    for cell in BRUTE_FORCE_CELLS:
        ps = PeriodicPointSet(cell_basis(*cell), BRUTE_FORCE_MOTIF)
        expect = brute_force_kth(ps, 12, box=8)
        got = kth_nearest_distances(ps, 12)
        assert np.allclose(got, expect, atol=1e-9), cell


def shell_search_oracle(ps: PeriodicPointSet, k: int) -> np.ndarray:
    """The shell search as it was before shells were cached: a fresh shell at
    every radius, `np.linalg.norm` for the distances, and a sort per radius."""
    h_min = 1.0 / np.linalg.norm(np.linalg.inv(ps.basis), axis=0).max()
    cart = ps.motif @ ps.basis
    best = np.empty((cart.shape[0], 0))
    radius = 0
    while True:
        rng = np.arange(-radius, radius + 1)
        grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
        offsets = grid[np.abs(grid).max(axis=1) == radius].astype(np.float64)
        images = (offsets[:, None, :] + ps.motif[None, :, :]).reshape(-1, 3) @ ps.basis
        dists = np.linalg.norm(images[None, :, :] - cart[:, None, :], axis=2)
        cand = np.concatenate([best, dists], axis=1)
        if cand.shape[1] > k + 1:
            cand = np.partition(cand, k, axis=1)[:, :k + 1]
        best = np.sort(cand, axis=1)
        if best.shape[1] >= k + 1 and best[:, k].max() < radius * h_min:
            return best[:, 1:k + 1]
        radius += 1


def fixture_point_sets() -> list[PeriodicPointSet]:
    return [load_cif_file(path) for path in sorted((FIXTURES / "cif").glob("*.cif"))]


def test_search_matches_the_uncached_norm_search_bit_for_bit():
    cases = [(ps, 30) for ps in fixture_point_sets()]
    cases += [(PeriodicPointSet(cell_basis(*cell), BRUTE_FORCE_MOTIF), 12)
              for cell in BRUTE_FORCE_CELLS]
    # a thin cell: the 40th neighbor lies 20 layers out, past the cached radii
    cases.append((PeriodicPointSet(np.diag([0.05, 3.0, 3.0]), [[0.0, 0.0, 0.0]]), 40))
    for ps, k in cases:
        assert np.array_equal(kth_nearest_distances(ps, k), shell_search_oracle(ps, k))
    assert max(crystal._shells) <= crystal._CACHED_SHELL_RADIUS < 20


def test_descriptors_do_not_depend_on_what_ran_before():
    crystal._shells.clear()
    sets = fixture_point_sets()
    forward = [amd(ps, 30) for ps in sets]
    backward = [amd(ps, 30) for ps in reversed(sets)][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_cached_shells_are_read_only():
    shell = crystal._shell_vectors(2)
    assert shell is crystal._shell_vectors(2)
    with pytest.raises(ValueError, match="read-only"):
        shell[0, 0] = 7.0


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(2.0, 5.0), b=st.floats(2.0, 5.0), c=st.floats(2.0, 5.0),
    alpha=st.floats(75.0, 105.0), beta=st.floats(75.0, 105.0),
    gamma=st.floats(75.0, 105.0),
)
def test_brute_force_property_random_cells(a, b, c, alpha, beta, gamma):
    ps = PeriodicPointSet(cell_basis(a, b, c, alpha, beta, gamma),
                          [[0.1, 0.25, 0.4], [0.65, 0.8, 0.95]])
    expect = brute_force_kth(ps, 8, box=9)
    got = kth_nearest_distances(ps, 8)
    assert np.allclose(got, expect, atol=1e-9)
    assert np.array_equal(got, shell_search_oracle(ps, 8))


def test_amd_is_monotone_nondecreasing():
    ps = PeriodicPointSet(cell_basis(3.2, 4.1, 5.3, 77.0, 88.0, 99.0),
                          [[0.2, 0.4, 0.6], [0.8, 0.1, 0.35]])
    values = amd(ps, 40)
    assert np.all(np.diff(values) >= -1e-12)


# -- descriptor comparison ----------------------------------------------------


def test_distance_matrix_hand_values():
    d = descriptor_distance_matrix([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    assert d.shape == (3, 3)
    assert np.allclose(np.diag(d), 0.0)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)
    assert d[0, 2] == 0.0


def test_distance_matrix_accepts_descriptor_arrays():
    a = np.array([1.0, 2.0])
    b = np.array([4.0, 6.0])
    d = descriptor_distance_matrix([a, b])
    assert d[0, 1] == pytest.approx(5.0)


def test_distance_matrix_mixed_lengths():
    with pytest.raises(ValidationError, match="mixed lengths"):
        descriptor_distance_matrix([[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_novelty_trivials_and_brute_min():
    refs = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
    cands = [[0.0, 0.0], [3.0, 4.0], [9.0, 0.0]]
    scores = novelty_score(cands, refs)
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(5.0)
    assert scores[2] == pytest.approx(1.0)
    ref_mat = np.asarray(refs)
    for cand, score in zip(cands, scores):
        brute = min(np.linalg.norm(np.asarray(cand) - r) for r in ref_mat)
        assert score == pytest.approx(brute)


def test_row_at_a_time_distances_match_the_3d_difference_bit_for_bit():
    # the all-pairs form the row loop replaced: one n x m x k difference array
    rng = np.random.Generator(np.random.PCG64(5))
    mat = rng.uniform(0.0, 20.0, (31, 100))
    refs = rng.uniform(0.0, 20.0, (17, 100))
    diff = mat[:, None, :] - mat[None, :, :]
    d = descriptor_distance_matrix(mat)
    assert np.array_equal(d, np.sqrt((diff * diff).sum(axis=2)))
    # row j - row i negates row i - row j exactly, so the CSV writes each pair's text once
    assert np.array_equal(d, d.T)
    diff = mat[:, None, :] - refs[None, :, :]
    assert np.array_equal(novelty_score(mat, refs), np.sqrt((diff * diff).sum(axis=2)).min(axis=1))


def test_novelty_validation():
    with pytest.raises(ValidationError, match="empty"):
        novelty_score([[1.0, 2.0]], [])
    with pytest.raises(ValidationError, match="length"):
        novelty_score([[1.0, 2.0, 3.0]], [[1.0, 2.0]])


def test_load_cif_file_roundtrip_and_error_positions(tmp_path):
    good = tmp_path / "good.cif"
    good.write_text(cif_text(a=3.0, b=3.0, c=3.0, atoms=((0.0, 0.0, 0.0),)))
    ps = load_cif_file(good)
    assert np.allclose(amd(ps, 6), 3.0, atol=1e-9)

    bad = tmp_path / "bad.cif"
    bad.write_text(cif_text().replace("'P 1'", "'Fm-3m'"))
    with pytest.raises(ValidationError, match=r"bad\.cif:8"):
        load_cif_file(bad)


def test_load_cif_file_names_a_file_it_cannot_read(tmp_path):
    binary = tmp_path / "binary.cif"
    binary.write_bytes(cif_text().encode() + b"\xff\n")
    with pytest.raises(ValidationError, match=r"binary\.cif: cannot read: .*0xff"):
        load_cif_file(binary)
    (tmp_path / "folder.cif").mkdir()
    with pytest.raises(ValidationError, match=r"folder\.cif: cannot read: Is a directory$"):
        load_cif_file(tmp_path / "folder.cif")
    with pytest.raises(ValidationError, match=r"missing\.cif: cannot read: No such file"):
        load_cif_file(tmp_path / "missing.cif")
