"""Column-at-a-time ingest against the row-by-row parser it replaced.

`oracle_parse_dataset` reads one record at a time and converts each
cell with `_parse_cell`, `parse_date` and `_parse_seccbot`. The
property test feeds both parsers random CSVs full of the cells the
one-pass column conversion cannot take, and requires the same lakes,
byte for byte, and the same malformed-row list.
"""

import csv
import io

import numpy as np
import pytest

from limnoplan.dataset import (
    DATE_COLUMN,
    DEFAULT_NA_TOKENS,
    ID_COLUMN,
    NAME_COLUMN,
    SDD_COLUMN,
    SECCBOT_COLUMN,
    LakeSeries,
    RowError,
    _parse_cell,
    _parse_seccbot,
    parse_dataset,
    parse_date,
)
from limnoplan.errors import SchemaError


def oracle_parse_dataset(stream, na_tokens=DEFAULT_NA_TOKENS):
    """Row-by-row parse (the reference): one tuple and one covariate list per visit."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise SchemaError("input has no header row")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SchemaError(f"repeated column name(s): {', '.join(repeated)}")

    absent = [c for c in (ID_COLUMN, DATE_COLUMN, SDD_COLUMN) if c not in header]
    if absent:
        raise SchemaError(f"missing mandatory column(s): {', '.join(absent)}")

    roles = (ID_COLUMN, DATE_COLUMN, SDD_COLUMN, SECCBOT_COLUMN, NAME_COLUMN)
    width, at = len(header), {c: i for i, c in enumerate(header)}
    features = [c for c in header if c not in roles]
    # An optional column the header lacks is read at index `width`, the None each row is padded with.
    id_at, date_at, sdd_at, seccbot_at, name_at = (at.get(c, width) for c in roles)
    feature_at = [at[c] for c in features]
    na = na_tokens

    errors = []
    visits = {}
    names = {}

    for row in reader:
        if not row:
            continue  # a blank line
        cells = len(row)
        del row[width:]  # extra cells are ignored
        row += [None] * (width + 1 - len(row))  # a short row's missing cells are None
        try:
            lake_id = int(row[id_at].strip())
            day = parse_date(row[date_at]).isoformat()
            sdd = _parse_cell(row[sdd_at], na)
            if sdd <= 0:  # false for a gap (NaN)
                raise ValueError(f"non-positive Secchi depth {sdd}")
            seccbot = _parse_seccbot(row[seccbot_at] or "", na)
            covariates = [_parse_cell(row[i], na) for i in feature_at]
        except (ValueError, AttributeError) as exc:
            # AttributeError: a cell the parser needs is one a short row lacks.
            message = f"short row ({cells} of {width} cells)" if isinstance(exc, AttributeError) else str(exc)
            errors.append(RowError(reader.line_num, message))
            continue

        names.setdefault(lake_id, (row[name_at] or "").strip() or str(lake_id))
        visits.setdefault(lake_id, []).append((day, sdd, covariates, seccbot))

    lakes = []
    for lake_id, rows in sorted(visits.items()):
        rows.sort(key=lambda visit: visit[0])  # stable, and ISO dates sort as text
        dates, sdd, covariates, seccbot = zip(*rows)
        lakes.append(LakeSeries(lake_id, names[lake_id], dates, sdd, covariates, list(features), seccbot))
    return lakes, errors


IDS = ["1", "01", " 1 ", "2", "7", "-3", "1_0", "١", "99999999999999999999", "123456789012345678901234", "x", "", "1.0"]
DATES = [
    "2001-06-01", "2001-06-02", "2000-02-29", "1999-12-31", "9999-12-31", "0001-01-01",  # valid
    " 2001-06-03 ", "2001-02-30", "2001-02-29", "0000-06-01", "2001-13-01", "20010601", "2001-6-3", "",
]
NUMBERS = [
    "", "NA", " NA ", "  ", "-999", " -999", "-999.0", "nan", "NaN", " nan", "inf", "-Infinity", "1e400",
    "1_0.5", "٣.٥", "0", " 0", "-0", "-1.5", " 2.5 ", "oops", "1e-300", "5e-324", "-0.0", "n/a", " n/a ", " inf",
]
SECCBOT = ["Yes", "No", "", " no ", "YES", "maybe", "NA", "-999", " yes"]
NAMES = ["Lake A", "", " ", "multi\nline", "a, b", " Padded ", 'quote "q"']
NA_TOKENS = [None, "-999", "n/a", " n/a ", "nan", "0", "inf"]


def random_csv(rng):
    """A random ingest CSV and its NA tokens: clean columns mixed with every awkward cell above."""
    features = [f"x{j}" for j in range(rng.integers(0, 4))]
    columns = [ID_COLUMN, DATE_COLUMN, SDD_COLUMN]
    columns += [c for c in (NAME_COLUMN, SECCBOT_COLUMN) if rng.random() < 0.8]
    columns += features
    header = [columns[i] for i in rng.permutation(len(columns))]
    token = NA_TOKENS[rng.integers(len(NA_TOKENS))]
    na_tokens = DEFAULT_NA_TOKENS if token is None else DEFAULT_NA_TOKENS | {token}
    dirt = rng.choice([0.0, 0.0, 0.03, 0.3])  # chance that a cell is an awkward one
    ids = [IDS[i] for i in rng.choice(len(IDS), size=3)]
    days = [f"{year}-{month:02d}-{day:02d}" for year, month, day in zip(
        rng.integers(1990, 2010, 4), rng.integers(1, 13, 4), rng.integers(1, 29, 4))]

    def cell(column):
        awkward = rng.random() < dirt
        if column == ID_COLUMN:
            return IDS[rng.integers(len(IDS))] if awkward else ids[rng.integers(len(ids))]
        if column == DATE_COLUMN:
            return DATES[rng.integers(len(DATES))] if awkward else days[rng.integers(len(days))]  # same-date visits
        if column == SECCBOT_COLUMN:
            return SECCBOT[rng.integers(len(SECCBOT))] if awkward or rng.random() < 0.5 else "No"
        if column == NAME_COLUMN:
            return NAMES[rng.integers(len(NAMES))]
        if awkward:
            return NUMBERS[rng.integers(len(NUMBERS))]
        return "" if rng.random() < 0.2 else repr(float(rng.uniform(0.1, 9.0)))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n" if rng.random() < 0.2 else "\n")
    writer.writerow(header)
    for _ in range(rng.integers(0, 25)):
        row = [cell(column) for column in header]
        shape = rng.random()
        if shape < 0.04:
            row = row[: rng.integers(0, len(row))]  # a short row
        elif shape < 0.08:
            row += ["extra", "cells"]
        elif shape < 0.1:
            row = []  # a blank line
        writer.writerow(row)
    return buffer.getvalue(), na_tokens


def assert_same_parse(got, want, context):
    (lakes, errors), (oracle_lakes, oracle_errors) = got, want
    assert errors == oracle_errors, context
    assert len(lakes) == len(oracle_lakes), context
    for a, b in zip(lakes, oracle_lakes):
        assert type(a.lake_id) is int and a.lake_id == b.lake_id, context
        assert (a.name, a.feature_schema) == (b.name, b.feature_schema), context
        for field in ("dates", "sdd", "covariates", "sdd_to_bottom"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (context, field)


def test_columns_parse_as_the_row_by_row_oracle():
    rng = np.random.default_rng(20261019)
    parsed_rows = bad_rows = 0
    for trial in range(400):
        text, na_tokens = random_csv(rng)
        got = parse_dataset(io.StringIO(text, newline=""), na_tokens)
        want = oracle_parse_dataset(io.StringIO(text, newline=""), na_tokens)
        assert_same_parse(got, want, (trial, na_tokens, text))
        parsed_rows += sum(len(s) for s in got[0])
        bad_rows += len(got[1])
    assert parsed_rows > 2000 and bad_rows > 300  # both outcomes well represented


@pytest.mark.parametrize(
    "column, cell, token",
    [
        ("x1", " -999", "-999"),  # a padded token: float() reads it, but it is a gap
        ("x1", " n/a ", " n/a "),  # a token with spaces never equals a stripped cell
        ("x1", "nan", None),
        ("zS_m", "nan", "nan"),  # the token itself is a gap
        ("zS_m", "-0", None),
        ("date", "0000-06-01", None),  # numpy reads year 0, `date` does not
        ("date", "2001-02-30", None),
        ("date", " 2001-06-01", None),
        ("midas", "99999999999999999999", None),  # beyond int64
        ("midas", "01", None),  # the lake of "1"
        ("seccbot", "maybe", None),
        (None, None, None),  # a row cut short after its date
    ],
)
def test_one_awkward_cell_in_a_workload_sized_column(column, cell, token):
    # 600 clean rows take the one-pass path; the one awkward cell sends its column cell by cell.
    rng = np.random.default_rng(7)
    header = ["midas", "lake", "date", "seccbot", "zS_m", "x1", "x2"]
    rows = [
        [str(1 + i % 3), "L", f"{1990 + i % 30}-{1 + i % 12:02d}-{1 + i % 28:02d}", "No", repr(rng.uniform(1, 5)),
         repr(rng.normal()), "" if i % 4 else repr(rng.normal())]
        for i in range(600)
    ]
    if column is None:
        del rows[300][3:]
    else:
        rows[300][header.index(column)] = cell
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    na_tokens = DEFAULT_NA_TOKENS if token is None else DEFAULT_NA_TOKENS | {token}
    got = parse_dataset(io.StringIO(buffer.getvalue(), newline=""), na_tokens)
    assert_same_parse(got, oracle_parse_dataset(io.StringIO(buffer.getvalue(), newline=""), na_tokens), column)
