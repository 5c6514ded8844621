"""Tabular datasets: typed features, rows, bounds, loading and splitting.

Two table shapes are supported: defect-metric tables with a boolean class
derived from a raw defect count, and configuration tables with a numeric
runtime class. Either way the dependent value is minimized. ``Dataset``
alone checks it: one feature of numeric kind, with bool cells under
``MINIMIZE_RATE`` and number cells under ``MINIMIZE_VALUE``.

Cells are floats (numeric), strings (discrete), bools (boolean class) or
None (missing, written as ``?`` or ``nan`` in CSV). ``load_csv`` gives each
distinct discrete symbol of a file one shared string object, so a column of
on/off options holds two strings however many rows it has.

``_parse_cell`` defines a CSV cell's value. ``load_csv`` gets the same
values a block of records and a column at a time: ``float`` over a numeric
column, whose sum must come out finite, or ``str.strip`` and the symbol
table over a discrete one. A column of the block that this pass rejects
(a ``?``, nan, infinite or non-numeric cell) goes cell by cell through
``_parse_cell``, so every error message is the per-cell one. The records
are ``csv.reader``'s, but a line with no quote character is split on its
commas, which gives the same cells faster.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

NUMERIC = "numeric"
DISCRETE = "discrete"
INDEPENDENT = "independent"
DEPENDENT = "dependent"
META = "meta"  # identifier columns (name, version): never used in distances

MINIMIZE_RATE = "minimize-class-rate"    # boolean class, minimize fraction true
MINIMIZE_VALUE = "minimize-class-value"  # numeric class, minimize its value

MISSING = "?"


class DataError(ValueError):
    """Malformed dataset, schema, or split request."""


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str = NUMERIC
    role: str = INDEPENDENT
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in (NUMERIC, DISCRETE):
            raise DataError(f"bad kind {self.kind!r} for feature {self.name!r}")
        if self.role not in (INDEPENDENT, DEPENDENT, META):
            raise DataError(f"bad role {self.role!r} for feature {self.name!r}")
        if not 0 <= self.weight < math.inf:  # NaN fails too
            raise DataError(f"weight of feature {self.name!r} must be finite and >= 0, not {self.weight}")


@dataclass
class SplitSpec:
    mode: str = "random-half"  # or "by-version"
    train_versions: list = field(default_factory=list)
    test_versions: list = field(default_factory=list)
    seed: int = 1


class Dataset:
    """Immutable-by-convention table; bounds are learned from its own rows."""

    def __init__(self, features, rows, objective):
        self.features = list(features)
        self.rows = [list(r) for r in rows]
        self.objective = objective
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        deps = [i for i, f in enumerate(self.features) if f.role == DEPENDENT]
        if len(deps) != 1:
            raise DataError(f"need exactly one dependent feature, got {len(deps)}")
        self.dep_index = deps[0]
        if objective not in (MINIMIZE_RATE, MINIMIZE_VALUE):
            raise DataError(f"bad objective {objective!r}")
        boolean = objective == MINIMIZE_RATE
        need = "classification needs a boolean dependent" if boolean else "regression needs a numeric dependent"
        if self.features[self.dep_index].kind != NUMERIC:
            raise DataError(f"{need}; {names[self.dep_index]!r} is discrete")
        self._index = {f.name: i for i, f in enumerate(self.features)}
        arity = len(self.features)
        for r in self.rows:
            if len(r) != arity:
                raise DataError(f"row arity {len(r)} != {arity}")
            v = r[self.dep_index]
            if v is None:
                raise DataError("dependent cell may not be missing")
            if isinstance(v, bool) != boolean or not isinstance(v, (int, float)):
                raise DataError(need)
        self.bounds = self._compute_bounds()

    def _compute_bounds(self):
        bounds = {}
        for i, f in enumerate(self.features):
            if f.kind != NUMERIC or f.role != INDEPENDENT:
                continue
            vals = [r[i] for r in self.rows if r[i] is not None]
            if vals:
                bounds[f.name] = (min(vals), max(vals))
        return bounds

    def index(self, name):
        return self._index[name]

    def column(self, name):
        i = self._index[name]
        return [r[i] for r in self.rows]

    @property
    def independent(self):
        return [f for f in self.features if f.role == INDEPENDENT]

    def dep_values(self):
        return [r[self.dep_index] for r in self.rows]

    def replace_rows(self, rows):
        return Dataset(self.features, rows, self.objective)

    def __len__(self):
        return len(self.rows)


def dependent_score(dep_values, objective):
    """Quality of a group of rows: fraction defective, or median runtime."""
    if not dep_values:
        raise DataError("empty group has no score")
    if objective == MINIMIZE_RATE:
        return sum(1 for v in dep_values if v) / len(dep_values)
    return median(dep_values)


def median(values):
    """``statistics.median``: the middle value, or the mean of the two middle
    values, taken as halves when their sum overflows."""
    vals = sorted(values)
    i = len(vals) // 2
    if len(vals) % 2:
        return vals[i]
    mean = (vals[i - 1] + vals[i]) / 2  # a float sum overflows to inf without a warning
    return vals[i - 1] / 2 + vals[i] / 2 if math.isinf(mean) else mean


def load_schema(path):
    """Read the sidecar config: feature list plus the class mode.

    Format: ``{"class_mode": "boolean-from-count" | "numeric",
    "features": [{"name":..., "kind":..., "role":..., "weight":...}, ...]}``
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not JSON: {exc}")
    if not isinstance(raw, dict) or not isinstance(raw.get("features"), list):
        raise DataError(f"{path}: a schema is a JSON object with a 'features' list")
    try:
        feats = [FeatureSpec(f["name"], f.get("kind", NUMERIC), f.get("role", INDEPENDENT), _weight(f))
                 for f in raw["features"]]
    except KeyError as exc:
        raise DataError(f"{path}: a feature has no {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad feature entry: {exc}")
    return feats, raw.get("class_mode", "boolean-from-count")


def _weight(entry):
    """A schema feature entry's weight as a float. Only a JSON number is a
    weight: a bool, a string or null is a DataError that names the feature."""
    weight = entry.get("weight", 1.0)
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise DataError(f"weight of feature {entry['name']!r} must be finite and >= 0 and a JSON number, "
                        f"not {json.dumps(weight)}")
    try:
        return float(weight)
    except OverflowError:  # an integer beyond the float range, which FeatureSpec rejects
        return math.inf if weight > 0 else -math.inf


def _parse_cell(text, feat, symbols, count):
    """One CSV cell's value (of a ``count`` cell, whether it is above 0); a
    discrete cell is the one object ``symbols`` holds for its text."""
    text = text.strip()
    if text == MISSING:
        return None
    if feat.kind == NUMERIC:
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"non-numeric cell {text!r} in numeric column {feat.name!r}")
        if math.isfinite(value):
            return value > 0 if count else value
        if math.isinf(value):
            raise DataError(f"infinite cell {text!r} in numeric column {feat.name!r}")
        return None  # nan reads as missing, like ``?``
    return symbols.setdefault(text, text)


def _parse_column(cells, feat, symbols, count):
    """``_parse_cell`` of each of a column's cells, in one pass over the
    column when none of them is ``?``, nan, infinite or not a number."""
    if feat.kind == NUMERIC:
        try:
            values = list(map(float, cells))  # float ignores the padding that _parse_cell strips
            if math.isfinite(sum(values)):  # a NaN or an infinity makes the sum non-finite
                return [v > 0 for v in values] if count else values
        except ValueError:
            pass
    else:
        texts = list(map(str.strip, cells))
        if MISSING not in texts:
            return list(map(symbols.setdefault, texts, texts))
    return [_parse_cell(c, feat, symbols, count) for c in cells]


def _parse_records(records, features, counts, symbols):
    """The rows of a block of records, parsed a column at a time; a bad cell
    raises the DataError of the first bad cell in row order."""
    try:
        columns = [_parse_column(cells, f, symbols, k)
                   for cells, f, k in zip(zip(*records), features, counts)]
    except DataError:
        for rec in records:  # a later column's bad cell may sit in an earlier row
            for c, f, k in zip(rec, features, counts):
                _parse_cell(c, f, symbols, k)
        raise
    return map(list, zip(*columns))


def read_lines(path):
    """A UTF-8 text file's lines, ends kept, streamed; other bytes are a DataError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


class _Lines:
    """A file's lines as ``csv.reader`` reads them, with one line that can
    be handed back, so that the reader's next read gets it again."""

    def __init__(self, lines):
        self.lines = lines
        self.back = None

    def __iter__(self):
        return self

    def __next__(self):
        line, self.back = self.back, None
        return next(self.lines) if line is None else line


def _csv_records(path):
    """``csv.reader``'s records of a UTF-8 file, streamed. The file's one
    reader reads the header and every line with a quote character, or long
    enough to hold a field over csv's size limit, and reads on to the lines
    that a quoted line break joins to the record. Any other line is split
    on its commas, which gives csv's cells in under half the time."""
    lines = _Lines(read_lines(path))
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return
    yield header
    limit = csv.field_size_limit()
    for line in lines.lines:
        if '"' in line or len(line) > limit:
            lines.back = line
            yield next(reader)
        else:
            text = line.rstrip("\r\n")
            yield text.split(",") if text else []  # csv reads a blank line as no cells


# Records per column pass. A block's records and its columns are alive
# together, and what they leave behind shows in an eval's peak RSS, which
# peaks later, in the forest fit. Parsing the whole file at once raised
# planted-3k's peak by 3.8 MB, and blocks of 256 records by 0.4 MB. At 64
# records a column's tuple is 552 bytes, over pymalloc's 512-byte limit, so
# every block took its temporaries from malloc's heap, and planted-3k's
# peak rose by 0.15 MB; at 32 they stay in pymalloc.
_BLOCK_RECORDS = 32


def load_csv(path, schema, class_mode="boolean-from-count"):
    """Load a CSV whose header matches the schema names, in order; under
    ``boolean-from-count`` a dependent count reads as whether it is above 0.
    Equal discrete cells share one string, from a table that ends with the call.

    Records are parsed in blocks of ``_BLOCK_RECORDS``, a column at a time;
    a column that holds a cell that is missing, nan, infinite or not a
    number is parsed a cell at a time. The block read so far is parsed
    before a wrong-arity record or an unreadable line is reported, so the
    error is the one of the first bad line in the file."""
    features = list(schema)
    if class_mode not in ("boolean-from-count", "numeric"):
        raise DataError(f"bad class mode {class_mode!r}")
    counted = class_mode == "boolean-from-count"
    counts = [counted and f.role == DEPENDENT for f in features]
    reader = _csv_records(path)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if [h.strip() for h in header] != [f.name for f in features]:
        raise DataError(f"{path}: header does not match schema names")
    rows = []
    symbols = {}
    block = []
    try:
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(features):
                raise DataError(f"{path}:{lineno}: expected {len(features)} cells, got {len(rec)}")
            block.append(rec)
            if len(block) == _BLOCK_RECORDS:
                full, block = block, []
                rows.extend(_parse_records(full, features, counts, symbols))
    finally:  # on an error too, so that a bad cell before the failing line is the one reported
        rows.extend(_parse_records(block, features, counts, symbols))
    return Dataset(features, rows, MINIMIZE_RATE if counted else MINIMIZE_VALUE)


def split(ds, spec):
    """Partition into disjoint train/test datasets; bounds are recomputed.
    An empty side is a DataError."""
    if spec.mode == "random-half":
        order = list(range(len(ds.rows)))
        random.Random(spec.seed).shuffle(order)
        cut = (len(order) + 1) // 2
        train_rows = [ds.rows[i] for i in order[:cut]]
        test_rows = [ds.rows[i] for i in order[cut:]]
    elif spec.mode == "by-version":
        train_versions, test_versions = set(spec.train_versions), set(spec.test_versions)
        overlap = train_versions & test_versions
        if overlap:
            raise DataError(f"versions in both train and test: {sorted(overlap)}")
        try:
            vi = ds.index("version")
        except KeyError:
            raise DataError("by-version split needs a 'version' column")
        train_rows = [r for r in ds.rows if r[vi] in train_versions]
        test_rows = [r for r in ds.rows if r[vi] in test_versions]
    else:
        raise DataError(f"bad split mode {spec.mode!r}")
    for name, rows in (("train", train_rows), ("test", test_rows)):
        if not rows:
            raise DataError(f"the {name} split is empty")
    return ds.replace_rows(train_rows), ds.replace_rows(test_rows)

