import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import xplan.data_model

from xplan.data_model import (
    DEPENDENT,
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    DataError,
    Dataset,
    FeatureSpec,
    SplitSpec,
    dependent_score,
    load_csv,
    load_schema,
    split,
)
from tests import oracle
from tests.conftest import config_runtime_data, planted_defect_data, save_csv
from tests.oracle import normalize_bounds

DEFECT_SCHEMA = [
    FeatureSpec("loc"),
    FeatureSpec("wmc"),
    FeatureSpec("bug", role="dependent"),
]


def write_defect_csv(tmp_path, body):
    p = tmp_path / "d.csv"
    p.write_text("loc,wmc,bug\n" + body)
    return p


def test_boolean_from_count_maps_positive_counts_to_true(tmp_path):
    p = write_defect_csv(tmp_path, "10,2,3\n20,4,0\n")
    ds = load_csv(p, DEFECT_SCHEMA, "boolean-from-count")
    assert ds.dep_values() == [True, False]
    assert ds.objective == MINIMIZE_RATE


def test_config_csv_loads_discrete_options_and_numeric_runtime(tmp_path):
    feats = [FeatureSpec(f"o{i}", kind="discrete") for i in range(16)]
    feats.append(FeatureSpec("runtime", role="dependent"))
    header = ",".join(f.name for f in feats)
    row = ",".join(["1", "0"] * 8) + ",42.5"
    p = tmp_path / "c.csv"
    p.write_text(header + "\n" + row + "\n")
    ds = load_csv(p, feats, "numeric")
    assert len(ds.independent) == 16
    assert all(f.kind == "discrete" for f in ds.independent)
    assert ds.objective == MINIMIZE_VALUE
    assert ds.rows[0][-1] == 42.5


def test_missing_marker_and_bad_numeric(tmp_path):
    p = write_defect_csv(tmp_path, "?,2,1\n")
    ds = load_csv(p, DEFECT_SCHEMA)
    assert ds.rows[0][0] is None
    p2 = write_defect_csv(tmp_path, "abc,2,1\n")
    with pytest.raises(DataError):
        load_csv(p2, DEFECT_SCHEMA)


def test_nan_cell_reads_as_missing_whatever_the_row_order(tmp_path):
    for body in ("1,2,1\nnan,2,0\n5,2,1\n", "nan,2,0\n1,2,1\n5,2,1\n", "1,2,1\n5,2,1\nNaN,2,0\n"):
        ds = load_csv(write_defect_csv(tmp_path, body), DEFECT_SCHEMA)
        assert ds.bounds["loc"] == (1.0, 5.0)
        assert sorted(r[0] for r in ds.rows if r[0] is not None) == [1.0, 5.0]
    with pytest.raises(DataError, match="dependent cell may not be missing"):
        load_csv(write_defect_csv(tmp_path, "1,2,nan\n"), DEFECT_SCHEMA)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_cell_names_cell_and_column(tmp_path, cell):
    p = write_defect_csv(tmp_path, f"1,2,1\n3,{cell},0\n")
    with pytest.raises(DataError) as err:
        load_csv(p, DEFECT_SCHEMA)
    assert str(err.value) == f"infinite cell {cell!r} in numeric column 'wmc'"


def test_wrong_arity_and_header_mismatch(tmp_path):
    p = write_defect_csv(tmp_path, "1,2\n")
    with pytest.raises(DataError):
        load_csv(p, DEFECT_SCHEMA)
    p2 = tmp_path / "h.csv"
    p2.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        load_csv(p2, DEFECT_SCHEMA)


def test_duplicate_feature_names_rejected():
    with pytest.raises(DataError):
        Dataset(
            [FeatureSpec("a"), FeatureSpec("a"), FeatureSpec("bug", role="dependent")],
            [],
            MINIMIZE_RATE,
        )


def test_exactly_one_dependent_required():
    with pytest.raises(DataError):
        Dataset([FeatureSpec("a")], [], MINIMIZE_RATE)


@pytest.mark.parametrize("class_mode, dependent, symbols, message", [
    ("boolean-from-count", "independent", "0 1", "need exactly one dependent feature, got 0"),
    ("boolean-from-count", "discrete", "no yes", "classification needs a boolean dependent; 'bug' is discrete"),
    ("boolean-from-count", "discrete", "0 3", "classification needs a boolean dependent; 'bug' is discrete"),
    ("numeric", "discrete", "slow fast", "regression needs a numeric dependent; 'bug' is discrete"),
    ("numeric", "discrete", "1.5 20", "regression needs a numeric dependent; 'bug' is discrete"),
])
def test_dependent_that_is_missing_or_discrete_is_a_data_error(tmp_path, class_mode, dependent,
                                                               symbols, message):
    # digit symbols of a discrete dependent are not read as counts or runtimes
    a, b = symbols.split()
    p = write_defect_csv(tmp_path, f"10,2,{a}\n20,4,{b}\n")
    kind, role = ("numeric", "independent") if dependent == "independent" else ("discrete", "dependent")
    schema = DEFECT_SCHEMA[:2] + [FeatureSpec("bug", kind=kind, role=role)]
    with pytest.raises(DataError) as err:
        load_csv(p, schema, class_mode)
    assert str(err.value) == message


def test_dependent_cell_never_missing():
    with pytest.raises(DataError):
        Dataset(
            [FeatureSpec("a"), FeatureSpec("bug", role="dependent")],
            [[1.0, None]],
            MINIMIZE_RATE,
        )


def test_schema_sidecar_roundtrip(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(
        '{"class_mode": "numeric", "features": ['
        '{"name": "a", "kind": "numeric", "role": "independent", "weight": 2},'
        '{"name": "v", "kind": "discrete", "role": "meta"},'
        '{"name": "rt", "kind": "numeric", "role": "dependent"}]}'
    )
    feats, mode = load_schema(p)
    assert mode == "numeric"
    assert feats[0].weight == 2
    assert feats[1].role == "meta"
    assert feats[2].role == DEPENDENT


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "-1", '"nan"', '"inf"'])
def test_schema_weight_that_is_not_finite_and_at_least_0_names_its_feature(tmp_path, weight):
    p = tmp_path / "schema.json"
    p.write_text('{"features": [{"name": "a", "weight": %s}, {"name": "bug", "role": "dependent"}]}'
                 % weight)
    with pytest.raises(DataError) as err:
        load_schema(p)
    assert str(err.value).startswith(f"{p}: bad feature entry: weight of feature 'a' must be finite and >= 0")


@pytest.mark.parametrize("weight, shown", [("true", "true"), ('"2.5"', '"2.5"'), ("null", "null"),
                                           ("[2]", "[2]"), ("1" + "0" * 400, "inf"), ("-1" + "0" * 400, "-inf")])
def test_schema_weight_must_be_a_json_number_that_is_not_a_bool(tmp_path, weight, shown):
    p = tmp_path / "schema.json"
    p.write_text('{"features": [{"name": "a", "weight": %s}, {"name": "bug", "role": "dependent"}]}'
                 % weight)
    with pytest.raises(DataError) as err:
        load_schema(p)
    message = str(err.value)
    assert message.startswith(f"{p}: bad feature entry: weight of feature 'a' must be finite and >= 0")
    assert message.endswith(f", not {shown}") and "\n" not in message


def test_random_half_split_sizes_and_determinism(tmp_path):
    body = "".join(f"{i},{i},0\n" for i in range(100))
    ds = load_csv(write_defect_csv(tmp_path, body), DEFECT_SCHEMA)
    spec = SplitSpec(mode="random-half", seed=1)
    tr1, te1 = split(ds, spec)
    tr2, te2 = split(ds, spec)
    assert len(tr1) == len(te1) == 50
    assert tr1.rows == tr2.rows and te1.rows == te2.rows


def test_split_is_a_partition(tmp_path):
    body = "".join(f"{i},{i},{i % 2}\n" for i in range(31))
    ds = load_csv(write_defect_csv(tmp_path, body), DEFECT_SCHEMA)
    tr, te = split(ds, SplitSpec(seed=7))
    assert len(tr) + len(te) == len(ds)
    assert len(tr) == 16 and len(te) == 15
    seen = sorted(r[0] for r in tr.rows + te.rows)
    assert seen == sorted(r[0] for r in ds.rows)


def test_by_version_split_routes_rows():
    feats = [
        FeatureSpec("loc"),
        FeatureSpec("version", kind="discrete", role="meta"),
        FeatureSpec("bug", role="dependent"),
    ]
    rows = [[1.0, "1.0", True], [2.0, "1.2", False], [3.0, "1.6", True]]
    ds = Dataset(feats, rows, MINIMIZE_RATE)
    tr, te = split(ds, SplitSpec(mode="by-version",
                                 train_versions=["1.0", "1.2"], test_versions=["1.6"]))
    assert [r[0] for r in tr.rows] == [1.0, 2.0]
    assert [r[0] for r in te.rows] == [3.0]


def test_version_in_both_lists_is_an_error():
    feats = [
        FeatureSpec("loc"),
        FeatureSpec("version", kind="discrete", role="meta"),
        FeatureSpec("bug", role="dependent"),
    ]
    ds = Dataset(feats, [[1.0, "1.0", True]], MINIMIZE_RATE)
    with pytest.raises(DataError):
        split(ds, SplitSpec(mode="by-version", train_versions=["1.0"], test_versions=["1.0"]))


def test_train_bounds_recomputed_after_split(tmp_path):
    body = "".join(f"{i * 10},1,0\n" for i in range(10))
    ds = load_csv(write_defect_csv(tmp_path, body), DEFECT_SCHEMA)
    tr, te = split(ds, SplitSpec(seed=3))
    lo, hi = tr.bounds["loc"]
    vals = [r[0] for r in tr.rows]
    assert (lo, hi) == (min(vals), max(vals))


def test_normalize_midpoint_boundary_and_degenerate():
    feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
    ds = Dataset(feats, [[10.0, False], [20.0, True]], MINIMIZE_RATE)
    assert normalize_bounds(15, *ds.bounds["x"]) == 0.5
    assert normalize_bounds(10, *ds.bounds["x"]) == 0.0
    assert normalize_bounds(25, *ds.bounds["x"]) == 1.0  # clamps
    degenerate = Dataset(feats, [[5.0, False], [5.0, True]], MINIMIZE_RATE)
    assert normalize_bounds(5, *degenerate.bounds["x"]) == 0.0


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_normalize_monotone(v1, v2):
    feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
    ds = Dataset(feats, [[0.0, False], [100.0, True]], MINIMIZE_RATE)
    lo, hi = sorted([v1, v2])
    assert normalize_bounds(lo, *ds.bounds["x"]) <= normalize_bounds(hi, *ds.bounds["x"])


def test_csv_roundtrip_bit_exact(tmp_path):
    feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
    header = "x,rt\n"
    p = tmp_path / "r.csv"
    p.write_text(header + "0.1,1.5\n?,0.3333333333333333\n")
    ds = load_csv(p, feats, "numeric")
    out = tmp_path / "out.csv"
    save_csv(ds, out)
    ds2 = load_csv(out, feats, "numeric")
    assert ds.rows == ds2.rows


def load_config_table(tmp_path):
    ds, _ = config_runtime_data(n_rows=60, seed=3)
    save_csv(ds, tmp_path / "c.csv")
    return load_csv(tmp_path / "c.csv", ds.features, "numeric")


def symbol_objects(rows, i):
    """Distinct symbols and distinct objects of column i's non-missing cells."""
    cells = [r[i] for r in rows if r[i] is not None]
    return set(cells), {id(c) for c in cells}


def test_each_distinct_symbol_is_one_object(tmp_path):
    ds = load_config_table(tmp_path)
    discrete = [i for i, f in enumerate(ds.features) if f.kind == "discrete"]
    assert len(discrete) == 8
    for i in discrete:
        symbols, objects = symbol_objects(ds.rows, i)
        assert symbols == {"on", "off"}
        assert len(objects) == len(symbols)


def test_split_sides_share_the_symbol_objects(tmp_path):
    ds = load_config_table(tmp_path)
    train, test = split(ds, SplitSpec(seed=5))
    for i, f in enumerate(ds.features):
        if f.kind == "discrete":
            _, objects = symbol_objects(ds.rows, i)
            assert symbol_objects(train.rows, i)[1] | symbol_objects(test.rows, i)[1] == objects


def test_padded_copies_of_a_symbol_are_one_object_and_missing_stays_none(tmp_path):
    feats = [FeatureSpec("opt", kind="discrete"), FeatureSpec("rt", role="dependent")]
    p = tmp_path / "s.csv"
    p.write_text("opt,rt\non,1\n on,2\non ,3\n?,4\n")
    ds = load_csv(p, feats, "numeric")
    assert [r[0] for r in ds.rows] == ["on", "on", "on", None]
    assert len({id(r[0]) for r in ds.rows[:3]}) == 1


def test_loading_a_file_twice_gives_equal_datasets(tmp_path):
    ds = load_config_table(tmp_path)
    again = load_csv(tmp_path / "c.csv", ds.features, "numeric")
    assert again.rows == ds.rows
    assert again.features == ds.features
    assert again.bounds == ds.bounds
    assert again.objective == ds.objective


def test_dependent_score_rate_and_median():
    assert dependent_score([True, False, False, True], MINIMIZE_RATE) == 0.5
    assert dependent_score([3.0, 1.0, 2.0], MINIMIZE_VALUE) == 2.0
    assert dependent_score([4.0, 1.0, 2.0, 3.0], MINIMIZE_VALUE) == 2.5


def test_dependent_score_median_whose_middle_sum_overflows():
    # 1e308 + 1.7e308 overflows; the median is the sum of their halves
    assert dependent_score([1.7e308, 1e308, -1.0, 1.8e308], MINIMIZE_VALUE) == 1e308 / 2 + 1.7e308 / 2
    assert dependent_score([-1.7e308, -1e308], MINIMIZE_VALUE) == -1e308 / 2 - 1.7e308 / 2


# Cells that every column pass takes in one go; cells that send a column
# cell by cell to _parse_cell (missing, nan, infinite, not a number, and
# finite numbers whose sum overflows); and quoted cells, which csv.reader
# reads, some with a comma or a line break inside or with no closing quote.
NUMBER_CELLS = ("0", "-1", "2.5", "3", " 7 ", "\t0.25", "-0.0", "1_000", "1e3")
SYMBOL_CELLS = ("on", "off", " on", "off ", "1", "0", "2.5")
ODD_CELLS = ("?", " ? ", "nan", "NaN", "inf", "-inf", "1e999", "abc", "", "1e308", "-1e308",
             '"2.5"', '"o,n"', '"on\r\noff"', '"4\n"', 'o"n', '"')


@st.composite
def csv_files(draw):
    """A schema, a class mode and the bytes of a CSV file for it: up to 600
    rows, around the loader's block sizes, that repeat a few drawn ones, with
    odd cells, blank lines, wrong-arity lines and non-UTF-8 bytes put in at
    drawn rows, and lines that end in LF, CRLF or CR."""
    kinds = draw(st.lists(st.sampled_from(("numeric", "discrete")), min_size=1, max_size=4))
    dep = draw(st.integers(0, len(kinds)))
    features = [FeatureSpec(f"f{i}", kind=k) for i, k in enumerate(kinds)]
    features.insert(dep, FeatureSpec("bug", role="dependent"))
    cells = {"numeric": st.sampled_from(NUMBER_CELLS), "discrete": st.sampled_from(SYMBOL_CELLS)}
    pattern = draw(st.lists(st.tuples(*(cells[f.kind] for f in features)), min_size=1, max_size=6))
    block = xplan.data_model._BLOCK_RECORDS
    n_rows = draw(st.sampled_from((1, 5, block - 1, block, block + 1, 3 * block + 5, 600)))
    rows = [list(pattern[i % len(pattern)]) for i in range(n_rows)]
    row = st.integers(0, n_rows - 1) | st.integers(0, min(n_rows, 4) - 1)  # often several in one block
    for i, j, cell in draw(st.lists(st.tuples(row, st.integers(0, len(features) - 1),
                                              st.sampled_from(ODD_CELLS)), max_size=4)):
        rows[i][j] = cell
    lines = [",".join(r).encode() for r in rows]
    edits = draw(st.lists(st.tuples(row, st.sampled_from(("blank", "short", "long", "bytes"))), max_size=3))
    for i, edit in sorted(edits, reverse=True):
        if edit == "blank":
            lines.insert(i, b"")
        elif edit == "short":
            lines[i] = lines[i].rpartition(b",")[0]
        elif edit == "long":
            lines[i] += b",1"
        else:
            lines[i] += b"\xff"
    header = ",".join(f.name for f in features).encode()
    mode = draw(st.sampled_from(("boolean-from-count", "numeric")))
    eol = draw(st.sampled_from((b"\n", b"\r\n", b"\r")))
    end = draw(st.sampled_from((b"", eol)))
    return features, mode, eol.join([header, *lines]) + end


def test_first_bad_cell_in_row_order_is_reported(tmp_path):
    # the column pass meets 'xyz' in the first column before 'abc' in the second
    p = write_defect_csv(tmp_path, "1,2,1\n1,abc,0\nxyz,2,1\n1,2\n")
    with pytest.raises(DataError) as err:
        load_csv(p, DEFECT_SCHEMA)
    assert str(err.value) == "non-numeric cell 'abc' in numeric column 'wmc'"


def test_bad_cell_before_a_wrong_arity_line_is_reported(tmp_path):
    p = write_defect_csv(tmp_path, "1,2,1\n1,inf,0\n1,2\n")
    with pytest.raises(DataError) as err:
        load_csv(p, DEFECT_SCHEMA)
    assert str(err.value) == "infinite cell 'inf' in numeric column 'wmc'"


def test_field_over_the_csv_size_limit_fails_as_csv_reader_does(tmp_path):
    p = write_defect_csv(tmp_path, "1,2,1\n" + "1" * (csv.field_size_limit() + 1) + ",2,0\n")
    errors = []
    for loader in (load_csv, oracle.load_csv):
        with pytest.raises(csv.Error) as err:
            loader(p, DEFECT_SCHEMA)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def loaded(loader, path, features, mode):
    """A loader's cells as (type, repr) by row, and its rows; or the message
    of its DataError."""
    try:
        ds = loader(path, features, mode)
    except DataError as exc:
        return str(exc)
    return [[(type(c), repr(c)) for c in r] for r in ds.rows], ds.rows


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
def test_column_pass_loads_what_the_per_cell_loader_loads(case):
    features, mode, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(data)
        got, want = loaded(load_csv, path, features, mode), loaded(oracle.load_csv, path, features, mode)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    symbols = {}
    for r in got[1]:
        for c in r:
            if isinstance(c, str):
                assert symbols.setdefault(c, c) is c  # one object per distinct symbol


@pytest.mark.parametrize("make", [lambda: planted_defect_data(600, 1)[0], lambda: config_runtime_data(600, 1)[0]],
                         ids=["planted", "config"])
def test_clean_table_is_parsed_without_a_call_per_cell(tmp_path, monkeypatch, make):
    ds = make()
    save_csv(ds, tmp_path / "t.csv")
    calls = []
    parse_cell = xplan.data_model._parse_cell
    monkeypatch.setattr(xplan.data_model, "_parse_cell", lambda *args: calls.append(args) or parse_cell(*args))
    again = load_csv(tmp_path / "t.csv", ds.features, "boolean-from-count" if ds.objective == MINIMIZE_RATE
                     else "numeric")
    assert len(again) == 600 and again.rows == ds.rows
    assert calls == []
