"""Dataset construction, CSV round-trips, splitting, vocabulary, scaling."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evoknn
from evoknn.dataset import (
    Dataset,
    DatasetError,
    atomic_write,
    from_rows,
    load_csv,
    normalize_minmax,
    split_random,
    unify_vocabulary,
    write_csv,
)


def test_public_api_names_are_importable():
    for name in evoknn.__all__:
        assert getattr(evoknn, name) is not None, name


def test_numpy_is_the_only_runtime_dependency():
    # scipy and friends may be installed where the tests run; an import of
    # them would pass every other test there and fail on a numpy-only install
    allowed = set(sys.stdlib_module_names) | {"numpy", "evoknn"}
    for path in sorted(Path(evoknn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["evoknn" if node.level else node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def _file_writes(tree):
    """Calls in ``tree`` that write a file: ``write_text``, ``write_bytes``,
    or ``open``/``.open`` with a literal mode holding w, a or x."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            yield node
        elif ((isinstance(func, ast.Name) and func.id == "open")
              or (isinstance(func, ast.Attribute) and func.attr == "open")):
            pos = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), p.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[pos:pos + 1]
            if any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value) & set("wax") for m in modes):
                yield node


def test_every_write_goes_through_atomic_write():
    # a file written in place is left half-written by a killed run
    found, in_writer = [], 0
    for path in sorted(Path(evoknn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {call for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "atomic_write"
                   for call in _file_writes(node)}
        in_writer += len(allowed)
        found += [f"{path.name}:{call.lineno}" for call in _file_writes(tree)
                  if call not in allowed]
    assert found == []
    assert in_writer == 1  # the scan does see the writer's own open call


def test_from_rows_assigns_ids_by_first_appearance():
    d = from_rows([[1, 2], [3, 4], [5, 6], [7, 8]], ["dog", "cat", "dog", "eel"])
    assert d.classes == ("dog", "cat", "eel")
    assert d.labels.tolist() == [0, 1, 0, 2]
    assert d.n_samples == 4
    assert d.feature_count == 2


def test_dataset_arrays_are_write_protected():
    d = from_rows([[1.0, 2.0]], ["a"])
    with pytest.raises(ValueError):
        d.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        d.labels[0] = 0


def test_dataset_rejects_bad_shapes_and_values():
    with pytest.raises(DatasetError, match="dataset is empty"):
        Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), ())
    # rows without a feature column: no consumer downstream checks this again
    with pytest.raises(DatasetError, match="dataset is empty"):
        Dataset(np.empty((2, 0)), [0, 1], ("a", "b"))
    with pytest.raises(DatasetError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), ("a",))
    with pytest.raises(DatasetError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0]), ("a",))
    with pytest.raises(DatasetError):
        Dataset(np.array([[np.inf, 1.0]]), np.array([0]), ("a",))
    with pytest.raises(DatasetError):  # label outside vocabulary
        Dataset(np.ones((2, 2)), np.array([0, 1]), ("a",))
    with pytest.raises(DatasetError):  # duplicate names
        Dataset(np.ones((1, 2)), np.array([0]), ("a", "a"))
    # a control character in a name, but tab: U+0000-U+0008, U+000A-U+001F, U+007F
    for odd in ("a\x00b", "a\x01b", "a\nb", "a\rb", "a\x1fb", "a\x7fb"):
        with pytest.raises(DatasetError, match="control characters"):
            Dataset(np.ones((1, 2)), np.array([0]), (odd,))
    assert Dataset(np.ones((1, 2)), np.array([0]), ("a\tb",)).classes == ("a\tb",)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    original = from_rows(rng.normal(size=(17, 4)).tolist(),
                         [f"class_{i % 3}" for i in range(17)])
    path = tmp_path / "data.csv"
    write_csv(original, path)
    loaded = load_csv(path)
    assert loaded.classes == original.classes
    assert loaded.labels.tolist() == original.labels.tolist()
    assert np.array_equal(loaded.features, original.features)  # bitwise


# class names holding the csv module's delimiter and quote characters, and
# whitespace, which load_csv strips: a name with whitespace at either end
# would not read back as written, so Dataset refuses it
class_names = st.text(alphabet="ab ,\"\té", min_size=1, max_size=6)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=width, max_size=width), min_size=1, max_size=6))
    names = draw(st.lists(class_names, min_size=len(rows), max_size=len(rows)))
    return rows, names


@settings(derandomize=True, database=None)
@example(([[-0.0, 5e-324, sys.float_info.max, -sys.float_info.max],
           [0.0, -2.2250738585072014e-308, 1e-310, 1.0]],
          ["gran, grey", 'say "hi"']))
@example(([[1.0], [2.0]], ["a", "a "]))
@given(tables())
def test_csv_round_trip_keeps_every_finite_float_bit_for_bit(tmp_path_factory, table):
    rows, names = table
    if any(name != name.strip() for name in names):
        with pytest.raises(DatasetError, match="whitespace"):
            from_rows(rows, names)
        return
    original = from_rows(rows, names)
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    write_csv(original, path)
    loaded = load_csv(path)
    assert loaded.classes == original.classes
    assert loaded.labels.tolist() == original.labels.tolist()
    assert loaded.features.tobytes() == original.features.tobytes()  # -0.0 too


@pytest.mark.parametrize("previous", [None, b"old bytes\n"])
def test_atomic_write_failure_leaves_the_previous_bytes_and_no_temp_file(tmp_path, previous):
    target = tmp_path / "out.txt"
    if previous is not None:
        target.write_bytes(previous)
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(target) as fh:
            fh.write("half a fi")
            fh.flush()
            raise OSError("disk full")
    assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["out.txt"])
    if previous is not None:
        assert target.read_bytes() == previous


def test_atomic_write_makes_parents_and_writes_without_newline_translation(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    with atomic_write(target) as fh:
        fh.write("é\r\n\n")
    assert target.read_bytes() == "é\r\n\n".encode("utf-8")
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_load_csv_without_header(tmp_path):
    text = "1.5,2.5,red\n3.5,4.5,blue\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")  # a leading byte-order mark
    for path in (plain, bom):
        d = load_csv(path, label_column="2", has_header=False)
        assert d.classes == ("red", "blue")
        assert d.features.tolist() == [[1.5, 2.5], [3.5, 4.5]]


def test_load_csv_label_column_by_name_index_and_negative(tmp_path):
    text = "kind,x,y\nup,1,2\ndown,3,4\n"
    plain, bom = tmp_path / "lab.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")  # the mark precedes "kind"
    for path in (plain, bom):
        by_name = load_csv(path, label_column="kind")
        by_index = load_csv(path, label_column=0)
        by_negative = load_csv(path, label_column=-3)
        for d in (by_name, by_index, by_negative):
            assert d.classes == ("up", "down")
            assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,y,label\n1,2,a\n1,2,3,a\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(ragged)

    # every data row must have the header's width, not the first row's
    wide_header = tmp_path / "wide_header.csv"
    wide_header.write_text("f0,f1,f2,label\n1,2,a\n3,4,b\n")
    with pytest.raises(DatasetError, match="ragged row 2 has 3 columns, expected 4"):
        load_csv(wide_header)

    narrow_header = tmp_path / "narrow_header.csv"
    narrow_header.write_text("f0,label\n1,2,a\n3,4,b\n")
    with pytest.raises(DatasetError, match="ragged row 2 has 3 columns, expected 2"):
        load_csv(narrow_header)

    text = tmp_path / "text.csv"
    text.write_text("x,y,label\n1,huh,a\n")
    with pytest.raises(DatasetError, match="huh"):
        load_csv(text)
    # float() reads these as 1000.0, 2.0 and 2.0; a feature cell is an ASCII
    # number without underscores
    for odd in ("1_000", "\u0662", "\uff12"):
        lenient = tmp_path / "lenient.csv"
        lenient.write_text(f"x,y,label\n1,2,a\n3,{odd},b\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=(
                f"non-numeric feature value {odd!r} at row 3, column 1")):
            load_csv(lenient)
    spaced = tmp_path / "spaced.csv"  # surrounding ASCII whitespace still reads
    spaced.write_text("x,y,label\n 1 ,\t2.5e1\t,a\n")
    assert load_csv(spaced).features.tolist() == [[1.0, 25.0]]

    missing = tmp_path / "missing.csv"
    missing.write_text("x,y,label\n1,2,a\n")
    with pytest.raises(DatasetError, match="not found"):
        load_csv(missing, label_column="nope")
    # an index is ASCII -?[0-9]+: no doubled sign, superscript or other script
    for odd in ("--1", "\u00b2"):
        with pytest.raises(DatasetError, match=f"missing.csv: label column {odd!r} not found"):
            load_csv(missing, label_column=odd)
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("1,2,a\n3,4,b\n")
    with pytest.raises(DatasetError, match="not found"):
        load_csv(headerless, label_column="\u0662", has_header=False)  # Arabic-Indic two

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("label\na\nb\n")
    with pytest.raises(DatasetError, match="feature column"):
        load_csv(narrow)

    dup = tmp_path / "dup.csv"
    dup.write_text("x,x,label\n1,2,a\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_csv(dup)

    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("x,y,label\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(headeronly)


def test_load_csv_ignores_blank_lines(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("x,y,label\n\n1,2,a\n\n3,4,b\n\n")
    d = load_csv(path)
    assert d.n_samples == 2


def test_split_random_partitions_and_is_deterministic():
    d = from_rows([[float(i), 0.0] for i in range(30)],
                  [f"c{i % 3}" for i in range(30)])
    train1, test1 = split_random(d, 7, seed=42)
    train2, test2 = split_random(d, 7, seed=42)
    assert np.array_equal(train1.features, train2.features)
    assert np.array_equal(test1.features, test2.features)
    assert train1.n_samples == 23 and test1.n_samples == 7
    # disjoint union of the original rows (first column is a unique id)
    ids = sorted(train1.features[:, 0].tolist() + test1.features[:, 0].tolist())
    assert ids == [float(i) for i in range(30)]
    # both sides keep the full vocabulary
    assert train1.classes == d.classes
    assert test1.classes == d.classes

    train3, test3 = split_random(d, 7, seed=43)
    assert not np.array_equal(test1.features, test3.features)


def test_split_random_rejects_bad_counts():
    d = from_rows([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])
    with pytest.raises(DatasetError):
        split_random(d, 0, seed=1)
    with pytest.raises(DatasetError):
        split_random(d, 2, seed=1)


def test_split_stratified_uses_largest_remainder():
    # 10/20/30 samples; 12 test slots -> exact shares 2/4/6
    rows, labels = [], []
    for c, count in enumerate((10, 20, 30)):
        for i in range(count):
            rows.append([float(c), float(i)])
            labels.append(f"c{c}")
    d = from_rows(rows, labels)
    _, test = split_random(d, 12, seed=9, stratified=True)
    assert np.bincount(test.labels, minlength=3).tolist() == [2, 4, 6]

    # 7 slots -> shares 1.166/2.333/3.5 -> floor 1/2/3, largest remainder c2
    _, test = split_random(d, 7, seed=9, stratified=True)
    assert np.bincount(test.labels, minlength=3).tolist() == [1, 2, 4]


def test_unify_vocabulary_remaps_by_name():
    a = from_rows([[1.0, 0.0], [2.0, 0.0]], ["x", "y"])
    b = from_rows([[3.0, 0.0], [4.0, 0.0], [5.0, 0.0]], ["y", "x", "z"])
    c = from_rows([[6.0, 0.0], [7.0, 0.0]], ["w", "z"])
    a2, b2, c2 = unify_vocabulary(a, b, c)
    # the first dataset's order wins; later new names follow in argument order
    for d in (a2, b2, c2):
        assert d.classes == ("x", "y", "z", "w")
    assert a2.labels.tolist() == [0, 1]
    assert b2.labels.tolist() == [1, 0, 2]
    assert c2.labels.tolist() == [3, 2]
    assert np.array_equal(b2.features, b.features)


def test_normalize_minmax_bounds_and_constant_features():
    train = from_rows([[0.0, 5.0, 7.0], [10.0, 5.0, 9.0]], ["a", "b"])
    other = from_rows([[5.0, 5.0, 11.0]], ["a"])
    t2, others, (lo, hi) = normalize_minmax(train, [other])
    assert t2.features.min() == 0.0 and t2.features.max() == 1.0
    assert t2.features[:, 1].tolist() == [0.0, 0.0]  # constant column
    assert lo.tolist() == [0.0, 5.0, 7.0]
    assert hi.tolist() == [10.0, 5.0, 9.0]
    # other datasets use the train bounds, so they may leave [0, 1]
    assert others[0].features[0].tolist() == [0.5, 0.0, 2.0]
