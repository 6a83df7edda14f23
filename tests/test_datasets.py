"""CSV ingestion."""

import pytest

from nshapley.datasets import DatasetError, load_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_small_fixture(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(path)
    assert ds.columns == ("a", "b", "c")
    assert ds.rows.shape == (3, 3)
    assert ds.rows[1, 2] == 6.0
    assert ds.labels is None
    assert len(ds) == 3 and ds.dim == 3


def test_label_column_split(tmp_path):
    path = write(tmp_path, "x,y,target\n0.5,1.5,1\n2.5,3.5,0\n")
    ds = load_csv(path, label_column="target")
    assert ds.columns == ("x", "y")
    assert list(ds.labels) == [1.0, 0.0]
    assert ds.rows.shape == (2, 2)
    with pytest.raises(DatasetError, match="no column named"):
        load_csv(path, label_column="missing")


def test_missing_cell_cites_row_and_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,\n")
    with pytest.raises(DatasetError, match=r"line 3, column 'b'"):
        load_csv(path)


def test_non_numeric_cell_cites_row_and_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\nx,4\n")
    with pytest.raises(DatasetError, match=r"line 3, column 'a'"):
        load_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,4,5\n")
    with pytest.raises(DatasetError, match="line 3 has 3 cells"):
        load_csv(path)


def test_header_only_file(tmp_path):
    path = write(tmp_path, "a,b\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(path)


def test_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DatasetError, match="empty file"):
        load_csv(path)


def test_nonfinite_rejected(tmp_path):
    path = write(tmp_path, "a\ninf\n")
    with pytest.raises(DatasetError, match="not finite"):
        load_csv(path)


def test_duplicate_header_rejected(tmp_path):
    path = write(tmp_path, "a,a\n1,2\n")
    with pytest.raises(DatasetError, match="duplicate column"):
        load_csv(path)


def test_scientific_notation_parses(tmp_path):
    path = write(tmp_path, "a\n1e-3\n-2.5E+2\n")
    ds = load_csv(path)
    assert list(ds.rows[:, 0]) == [0.001, -250.0]


@pytest.mark.parametrize(
    "raw", [b"\xff\xfea\x00,\x00b\x00\n", b"a,b\n1,2\n3,\xe9\n"], ids=["utf16", "latin1"]
)
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, raw):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(DatasetError, match=r"data\.csv: not UTF-8 text"):
        load_csv(path)


@pytest.mark.parametrize(
    "char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe", "\uffff"],
    ids=["nul", "soh", "bs", "vt", "ff", "so", "us", "fffe", "ffff"],
)
def test_a_column_name_xml_cannot_carry_is_rejected(tmp_path, char):
    path = tmp_path / "data.csv"
    path.write_text(f"ok,a{char}b,y\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_csv(path)
    message = str(info.value)
    assert message.startswith(f"{path}: column 2 of the header, {'a' + char + 'b'!r}")
    assert "XML cannot carry" in message


def test_odd_but_legal_column_names_are_kept(tmp_path):
    names = ("a<b&c", "x\ty", "del\x7f", "\ufffd", "\u00e9")
    path = tmp_path / "data.csv"
    path.write_text(",".join(names) + "\n1,2,3,4,5\n", encoding="utf-8")
    assert load_csv(path).columns == names
