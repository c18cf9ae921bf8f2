import csv
import math

import pytest

from blockflow.analysis import load_isotherm_table
from blockflow.dataset import load_dataset
from blockflow.errors import ValidationError
from blockflow.files import atomic_write, read_table, trim_table, write_table


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


def test_write_table_gives_the_csv_writer_bytes(tmp_path):
    header = ["name", "value", "count"]
    rows = [["a,b", -0.0, 1], ['say "hi"', 5e-324, None], ["plain", 1e16, 7],
            ["big", math.inf, 0]]
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    path = tmp_path / "table.csv"
    write_table(path, header, iter(rows))
    assert path.read_bytes() == reference.read_bytes() == (
        b'name,value,count\r\n"a,b",-0.0,1\r\n"say ""hi""",5e-324,\r\n'
        b"plain,1e+16,7\r\nbig,inf,0\r\n")
    assert read_table(path) == (header, [(2, ["a,b", "-0.0", "1"]), (3, ['say "hi"', "5e-324", ""]),
                                         (4, ["plain", "1e+16", "7"]), (5, ["big", "inf", "0"])])
    (tmp_path / "empty.csv").write_bytes(b"")
    assert read_table(tmp_path / "empty.csv") == ([], [])


@pytest.mark.parametrize("body", ["1,2\n1,2,3\n", "1,2\n\n"], ids=["long", "blank"])
def test_read_table_refuses_a_row_of_another_width(tmp_path, body):
    # a short row is refused through each loader's own tests
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(ValidationError, match="t.csv:3: expected 2 fields"):
        read_table(path)


@pytest.mark.parametrize("content", [None, b"material\r\n\xff\r\n",
                                     b"material\r\n" + b"x" * (csv.field_size_limit() + 1)],
                         ids=["missing", "not-utf8", "cell-over-the-csv-limit"])
@pytest.mark.parametrize("load", [load_dataset, lambda path, env: load_isotherm_table(path)])
def test_an_unreadable_table_is_refused_by_name(tmp_path, load, content, bridge_env):
    path = tmp_path / "table.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValidationError, match=f"cannot read {path}"):
        load(path, bridge_env)


LEDGER_HEADER = ["episode", "record", "score"]
LEDGER_ROWS = [[1, "N1,E2", 0.5], [2, 'say "hi"', 5e-324], [3, "", -0.0], [4, "x", 1e16]]


def test_trim_table_keeps_the_whole_rows_up_to_the_episode_at_every_cut(tmp_path):
    # a table appended row by row whose episode is its first of three columns,
    # cut by a crash at every byte: each whole row up to episode 3 stays, as written
    full_path, path, expected = tmp_path / "full.csv", tmp_path / "ledger.csv", tmp_path / "want.csv"
    write_table(full_path, LEDGER_HEADER, LEDGER_ROWS)
    full = full_path.read_bytes()
    line_ends = [i + 1 for i, byte in enumerate(full) if byte == ord("\n")][1:]
    for cut in range(len(full) + 1):
        path.write_bytes(full[:cut])
        trim_table(path, LEDGER_HEADER, 3)
        whole = sum(end <= cut for end in line_ends)
        write_table(expected, LEDGER_HEADER, [r for r in LEDGER_ROWS[:whole] if r[0] <= 3])
        assert path.read_bytes() == expected.read_bytes(), cut
    path.unlink()
    trim_table(path, LEDGER_HEADER, 3)  # a missing table is written with its header
    assert path.read_bytes() == b"episode,record,score\r\n"


@pytest.mark.parametrize("line", [
    b"\xff\xfe,1,2\r\n", b"x,1,2\r\n", b"1,2\r\n", b"1,2,3,4\r\n", b'1,x,"y\r\n', b"1,2\r3\r\n",
    b"9" * 5000 + b",1,2\r\n", b"1,2," + b"x" * (csv.field_size_limit() + 1) + b"\r\n",
    b"+1,1,2\r\n", b"\r\n", b"\n",
], ids=["not-utf8", "not-decimal", "short", "long", "open-quote", "stray-cr",
        "episode-too-long-for-int", "cell-over-the-csv-limit", "sign", "blank-crlf", "blank-lf"])
def test_trim_table_drops_a_line_that_is_not_a_row_and_keeps_the_rows_after_it(tmp_path, line):
    path, expected = tmp_path / "ledger.csv", tmp_path / "want.csv"
    write_table(path, LEDGER_HEADER, LEDGER_ROWS[:1])
    with open(path, "ab") as fh:
        fh.write(line + b'2,"say ""hi""",5e-324\r\n')
    trim_table(path, LEDGER_HEADER, 3)
    write_table(expected, LEDGER_HEADER, LEDGER_ROWS[:2])
    assert path.read_bytes() == expected.read_bytes()
