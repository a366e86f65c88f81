"""Ingest, exclusions, missingness profiles, ranking, and splitting."""

import csv
import io
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from limnoplan.dataset import (
    DEFAULT_NA_TOKENS,
    LakeSeries,
    RowError,
    apply_exclusions,
    missingness_profile,
    parse_dataset,
    select_top_lakes,
    split_by_count,
    split_test_block,
    write_series_csv,
)
from limnoplan.errors import InsufficientDataError, SchemaError

from conftest import assert_same_series, series_from_arrays

HEADER = "midas,lake,date,seccbot,zS_m,TSc,TBc\n"


def _parse(text, na_tokens=DEFAULT_NA_TOKENS):
    return parse_dataset(io.StringIO(text), na_tokens)


class TestLakeSeries:
    def _columns(self, n=3):
        dates = [date(2000, 1, 1 + i) for i in range(n)]
        return dict(
            lake_id=1,
            name="L",
            dates=dates,
            sdd=np.ones(n),
            covariates=np.zeros((n, 2)),
            feature_schema=["a", "b"],
            sdd_to_bottom=np.zeros(n, dtype=bool),
        )

    def test_out_of_order_dates_raise(self):
        columns = self._columns()
        columns["dates"] = columns["dates"][::-1]
        with pytest.raises(ValueError, match="chronological"):
            LakeSeries(**columns)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sdd", np.ones(2)),
            ("covariates", np.zeros((4, 2))),
            ("covariates", np.zeros((3, 3))),
            ("sdd_to_bottom", np.zeros(4, dtype=bool)),
            ("feature_schema", ["a"]),
        ],
    )
    def test_columns_of_unequal_length_raise(self, field, value):
        columns = self._columns()
        LakeSeries(**columns)
        columns[field] = value
        with pytest.raises(ValueError, match="unequal length"):
            LakeSeries(**columns)

    def test_take_copies_the_rows(self):
        series = LakeSeries(**self._columns())
        part = series.take(np.array([0, 2]))
        assert len(part) == 2 and part.feature_schema == series.feature_schema
        part.covariates[:] = 7.0
        assert not series.covariates.any()


class TestParse:
    def test_empty_file_with_header(self):
        lakes, errors = _parse(HEADER)
        assert lakes == [] and errors == []

    def test_two_lakes_shuffled_rows_sorted(self):
        text = HEADER + "\n".join(
            [
                "2,B,2001-06-01,No,2.0,10,4",
                "1,A,2003-06-01,No,3.0,11,5",
                "2,B,2000-06-01,No,2.5,12,6",
                "1,A,2001-06-01,No,3.5,13,7",
                "2,B,2002-06-01,No,2.2,14,8",
                "1,A,2002-06-01,No,3.2,15,9",
            ]
        )
        lakes, errors = _parse(text)
        assert errors == []
        assert [s.lake_id for s in lakes] == [1, 2]
        for series in lakes:
            assert len(series) == 3
            stamps = series.dates.tolist()
            assert stamps == sorted(stamps)
        assert lakes[0].feature_schema == ["TSc", "TBc"]

    def test_same_date_visits_keep_file_order(self):
        # Forty rows on two alternating dates: long enough that an
        # unstable sort would reorder visits within a date.
        days = ["2001-06-01", "2000-01-01"] * 20
        text = HEADER + "\n".join(f"1,A,{day},No,{1 + i / 100},1,2" for i, day in enumerate(days))
        lakes, errors = _parse(text)
        assert errors == []
        positions = np.rint((lakes[0].sdd - 1) * 100).astype(int).tolist()
        assert positions == list(range(1, 40, 2)) + list(range(0, 40, 2))

    def test_na_cell_matches_hand_parsed_fixture(self):
        text = HEADER + "7,Gull,1999-05-04,No,4.1,NA,6.5\n"
        lakes, errors = _parse(text)
        assert errors == []
        expected = LakeSeries(7, "Gull", [date(1999, 5, 4)], [4.1], [[np.nan, 6.5]], ["TSc", "TBc"], [False])
        assert_same_series(lakes[0], expected)

    def test_missing_mandatory_column(self):
        with pytest.raises(SchemaError):
            _parse("midas,lake,seccbot,TSc\n")

    def test_row_errors_reported_with_line_numbers(self):
        text = HEADER + "1,A,2001-06-01,No,2.0,1,2\n1,A,not-a-date,No,2.0,1,2\n1,A,2002-06-01,No,oops,1,2\n"
        lakes, errors = _parse(text)
        assert len(lakes) == 1 and len(lakes[0]) == 1
        assert sorted(e.line for e in errors) == [3, 4]

    def test_nonpositive_sdd_is_a_row_error(self):
        text = HEADER + "1,A,2001-06-01,No,-2.0,1,2\n"
        lakes, errors = _parse(text)
        assert lakes == [] and len(errors) == 1

    def test_non_finite_cells_are_row_errors(self):
        text = HEADER + "\n".join(
            [
                "1,A,2001-06-01,No,2.0,1,2",
                "1,A,2002-06-01,No,nan,1,2",
                "1,A,2003-06-01,No,2.0,inf,2",
                "1,A,2004-06-01,No,2.0,1,-Infinity",
                "1,A,2005-06-01,No,2.0,1,NaN",
            ]
        )
        lakes, errors = _parse(text)
        assert len(lakes[0]) == 1
        assert [e.line for e in errors] == [3, 4, 5, 6]

    def test_dates_must_be_yyyy_mm_dd(self):
        # Other ISO-8601 spellings parse on some Python versions only.
        text = HEADER + "\n".join(
            [
                "1,A,2001-06-01,No,2.0,1,2",
                "1,A,20010602,No,2.0,1,2",
                "1,A,2001-W01-1,No,2.0,1,2",
                "1,A,2001-6-3,No,2.0,1,2",
                "1,A,2001-06-04T00:00,No,2.0,1,2",
                "1,A,2001-02-30,No,2.0,1,2",
                "1,A, 2001-06-05 ,No,2.0,1,2",
            ]
        )
        lakes, errors = _parse(text)
        assert lakes[0].dates.astype(str).tolist() == ["2001-06-01", "2001-06-05"]
        assert [e.line for e in errors] == [3, 4, 5, 6, 7]
        assert "YYYY-MM-DD" in errors[0].message and "YYYY-MM-DD" in errors[1].message

    def test_short_row_is_a_row_error(self):
        text = HEADER + "1,A,2001-06-01,No,2.0,1,2\n1,A,2002-06-01\n"
        lakes, errors = _parse(text)
        assert len(lakes[0]) == 1
        assert [e.line for e in errors] == [3]

    def test_short_row_names_its_cell_count(self):
        lakes, errors = _parse(HEADER + "1,A,2001-06-01,No,3.0,1.0\n")
        assert lakes == [] and errors == [RowError(2, "short row (6 of 7 cells)")]

    def test_short_row_lacking_only_optional_cells_still_parses(self):
        # Name and seccbot cells are optional: a row that ends before them reads them as empty.
        lakes, errors = _parse("midas,date,zS_m,x1,seccbot,lake\n1,2001-06-01,3.0,1.0\n")
        assert errors == [] and lakes[0].name == "1" and lakes[0].sdd_to_bottom.tolist() == [False]

    @pytest.mark.parametrize(
        "header, repeated", [("midas,lake,date,seccbot,zS_m,x1,x1", "x1"), ("midas,date,zS_m,date,x1", "date")]
    )
    def test_repeated_column_name_is_a_schema_error(self, header, repeated):
        with pytest.raises(SchemaError, match=f"repeated column name\\(s\\): {repeated}$"):
            _parse(header + "\n1,A,2001-06-01,No,3.0,1.0,2.0\n")

    def test_configured_na_token(self):
        text = HEADER + "1,A,2001-06-01,No,2.0,-999,2\n"
        lakes, _ = _parse(text, DEFAULT_NA_TOKENS | {"-999"})
        assert np.isnan(lakes[0].covariates[0, 0])

    def test_seccbot_parsing(self):
        text = HEADER + "1,A,2001-06-01,Yes,2.0,1,2\n1,A,2002-06-01,,2.0,1,2\n"
        lakes, errors = _parse(text)
        assert errors == []
        assert lakes[0].sdd_to_bottom.tolist() == [True, False]

    def test_round_trip_through_csv_writer(self, rng):
        X = rng.normal(size=(6, 3))
        X[2, 1] = np.nan
        series = series_from_arrays(11, rng.uniform(1, 5, 6), X, ["a", "b", "c"])
        buf = io.StringIO()
        write_series_csv(series, buf)
        lakes, errors = parse_dataset(io.StringIO(buf.getvalue()))
        assert errors == []
        assert lakes[0].feature_schema == series.feature_schema
        assert_same_series(lakes[0], series)


class TestWriter:
    EDGES = [-0.0, 5e-324, 1e-05, 1e16, -1.7976931348623157e308]

    def test_edge_values_round_trip_bit_for_bit(self):
        X = np.array([self.EDGES, self.EDGES[::-1], [np.nan, 1.5, np.nan, -0.0, 2.0], [0.25] * 4 + [np.nan]])
        sdd = np.array([5e-324, 1e16, 1e-05, 3.0])
        series = series_from_arrays(7, sdd, X, ["a", "b", "c", "d", "e"])
        buf = io.StringIO()
        write_series_csv(series, buf)
        lakes, errors = parse_dataset(io.StringIO(buf.getvalue()))
        assert errors == []
        (back,) = lakes
        assert_same_series(back, series)
        gaps = np.isnan(X)
        assert np.array_equal(np.isnan(back.covariates), gaps)
        assert back.covariates[~gaps].tobytes() == X[~gaps].tobytes()  # -0.0 keeps its sign
        assert back.sdd.tobytes() == sdd.tobytes()

        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        empty = np.array([[cell == "" for cell in row[5:]] for row in rows])
        assert np.array_equal(empty, gaps)  # a gap is an empty cell, and nothing else is
        assert all(cell != "" for row in rows for cell in row[:5])


class TestIngestTable:
    """Ingest rules pinned on one table, cell case by cell case."""

    TEXT = (
        "midas,lake,date,seccbot,zS_m,x1,x2\n"
        "1, Lake A ,2001-06-01,No,3.0,1.0,2.0,extra,cells\n"  # 2: extra cells are ignored
        "\n"  # 3: a blank line is skipped
        '1,"Lake, A",2001-06-02, no , 3.5 , NA ,\n'  # 4: cells are stripped; NA and empty are gaps
        "1,A,2001-06-03,,4.0,-999,  \n"  # 5: the --na-token is a gap, so is a blank cell
        '1,"multi\nline name",2001-06-04,No,2.0,nan,1\n'  # 6-7: one record over two lines
        "1,A,2001-06-05,No,inf,1,1\n"  # 8
        "1,A,2001-06-06,No,2.0,1,1e400\n"  # 9: overflows to inf
        "1,A,2001-06-07,No,2.0,1.5,1\n"  # 10
        '2,"Two, B",2001-06-01,YES,2.0,1,2\n'  # 11: a quoted name with a comma is read whole
        "2,B,2001-06-02,No,2.0,1,2\n"  # 12
    )

    def test_table(self):
        lakes, errors = _parse(self.TEXT, DEFAULT_NA_TOKENS | {"-999"})
        assert errors == [
            RowError(7, "non-finite value 'nan'"),
            RowError(8, "non-finite value 'inf'"),
            RowError(9, "non-finite value '1e400'"),
        ]
        one, two = lakes
        assert one.name == "Lake A" and two.name == "Two, B"
        assert one.dates.astype(str).tolist() == ["2001-06-01", "2001-06-02", "2001-06-03", "2001-06-07"]
        assert one.sdd.tolist() == [3.0, 3.5, 4.0, 2.0]
        np.testing.assert_array_equal(one.covariates, [[1.0, 2.0], [np.nan, np.nan], [np.nan, np.nan], [1.5, 1.0]])
        assert one.sdd_to_bottom.tolist() == [False] * 4 and two.sdd_to_bottom.tolist() == [True, False]
        assert one.feature_schema == two.feature_schema == ["x1", "x2"]

    def test_without_the_na_token_its_cells_are_numbers(self):
        lakes, errors = _parse(self.TEXT)
        assert len(errors) == 3 and lakes[0].covariates[2, 0] == -999.0

    def test_an_id_beyond_int64_is_a_lake(self):
        lakes, errors = _parse(HEADER + "99999999999999999999,Big,2001-06-01,No,2.0,1,2\n")
        assert errors == [] and (lakes[0].lake_id, lakes[0].name) == (10**20 - 1, "Big")

    def test_year_zero_is_a_row_error(self):
        # numpy reads 0000-06-01 as a date; `datetime.date` does not.
        lakes, errors = _parse(HEADER + "1,A,0000-06-01,No,2.0,1,2\n1,A,2001-06-01,No,2.0,1,2\n")
        assert errors == [RowError(2, "year 0 is out of range")] and len(lakes[0]) == 1

    def test_a_padded_float_parsable_na_token_is_a_gap(self):
        lakes, errors = _parse(HEADER + "1,A,2001-06-01,No,2.0, -999,2\n", DEFAULT_NA_TOKENS | {"-999"})
        assert errors == [] and np.isnan(lakes[0].covariates[0, 0])

    def test_one_and_zero_one_are_one_lake_named_by_its_first_valid_row(self):
        text = HEADER + "01,Bad,2001-13-01,No,2.0,1,2\n1,First,2001-06-02,No,3.0,1,2\n01,Second,2001-06-01,No,4.0,1,2\n"
        lakes, errors = _parse(text)
        assert [e.line for e in errors] == [2]
        (lake,) = lakes
        assert (lake.lake_id, lake.name, lake.sdd.tolist()) == (1, "First", [4.0, 3.0])


class TestExclusions:
    def test_identity_when_nothing_to_drop(self, rng):
        series = series_from_arrays(1, rng.uniform(1, 3, 4), rng.normal(size=(4, 2)), ["TSc", "TBc"])
        out = apply_exclusions(series)
        assert_same_series(out, series)

    def test_flagged_rows_removed(self, rng):
        flags = np.arange(10) < 3
        series = series_from_arrays(1, np.full(10, 2.0), np.ones((10, 1)), ["TSc"], step_days=1, flags=flags)
        assert len(apply_exclusions(series)) == 7

    def test_chlorophyll_dropped_from_schema_and_records(self, rng):
        schema = ["TSc", "chlorophyll-a", "TBc"]
        X = rng.normal(size=(5, 3))
        series = series_from_arrays(1, rng.uniform(1, 3, 5), X, schema)
        out = apply_exclusions(series)
        assert out.feature_schema == ["TSc", "TBc"]
        assert np.array_equal(out.covariates, X[:, [0, 2]])

    def test_idempotent(self, rng):
        schema = ["chla", "TSc"]
        series = series_from_arrays(1, rng.uniform(1, 3, 5), rng.normal(size=(5, 2)), schema)
        once = apply_exclusions(series)
        twice = apply_exclusions(once)
        assert_same_series(once, twice)


class TestMissingness:
    def test_fully_observed_column_is_zero(self, rng):
        series = series_from_arrays(1, rng.uniform(1, 3, 4), rng.normal(size=(4, 1)), ["TSc"])
        assert missingness_profile(series).per_feature["TSc"] == 0.0

    def test_three_of_four_missing(self, rng):
        X = rng.normal(size=(4, 1))
        X[[0, 1, 2], 0] = np.nan
        series = series_from_arrays(1, rng.uniform(1, 3, 4), X, ["TSc"])
        assert missingness_profile(series).per_feature["TSc"] == 0.75

    def test_lake_mean_matches_rational_arithmetic(self, rng):
        # Power-of-two row and feature counts keep the float arithmetic exact.
        for trial in range(10):
            n_rows, n_cols = 8, int(rng.choice([1, 2, 4]))
            X = rng.normal(size=(n_rows, n_cols))
            counts = rng.integers(0, n_rows, size=n_cols)
            for j, c in enumerate(counts):
                X[rng.permutation(n_rows)[:c], j] = np.nan
            series = series_from_arrays(1, rng.uniform(1, 3, n_rows), X, [f"f{j}" for j in range(n_cols)])
            profile = missingness_profile(series)
            expected = sum(Fraction(int(c), n_rows) for c in counts) / n_cols
            for j, c in enumerate(counts):
                assert profile.per_feature[f"f{j}"] == Fraction(int(c), n_rows)
            assert profile.lake_mean == expected
            assert 0.0 <= profile.lake_mean <= 1.0

    def test_empty_series_errors(self):
        with pytest.raises(InsufficientDataError):
            missingness_profile(LakeSeries(1, "Empty", [], [], np.empty((0, 1)), ["TSc"], []))


def _lake_with_gap_fraction(lake_id, fraction, n_rows, rng, name="L"):
    X = rng.normal(size=(n_rows, 2))
    gaps = int(round(fraction * n_rows))
    X[:gaps, 0] = np.nan
    X[:gaps, 1] = np.nan
    return series_from_arrays(lake_id, rng.uniform(1, 3, n_rows), X, ["a", "b"], name=name)


class TestSelectTopLakes:
    def test_full_set_sorted(self, rng):
        lakes = [
            _lake_with_gap_fraction(1, 0.5, 10, rng),
            _lake_with_gap_fraction(2, 0.1, 10, rng),
            _lake_with_gap_fraction(3, 0.3, 10, rng),
        ]
        assert select_top_lakes(lakes, 3) == [2, 3, 1]

    def test_forced_order_top_two(self, rng):
        lakes = [
            _lake_with_gap_fraction(10, 0.2, 10, rng),
            _lake_with_gap_fraction(11, 0.5, 10, rng),
            _lake_with_gap_fraction(12, 0.1, 10, rng),
        ]
        assert select_top_lakes(lakes, 2) == [12, 10]

    def test_tie_breaks_longer_record_then_smaller_id(self, rng):
        lakes = [
            _lake_with_gap_fraction(5, 0.5, 10, rng),
            _lake_with_gap_fraction(4, 0.5, 20, rng),
            _lake_with_gap_fraction(3, 0.5, 10, rng),
        ]
        assert select_top_lakes(lakes, 3) == [4, 3, 5]

    def test_too_many_requested(self, rng):
        with pytest.raises(InsufficientDataError):
            select_top_lakes([_lake_with_gap_fraction(1, 0.1, 10, rng)], 2)

    def test_permutation_invariance(self, rng):
        lakes = [_lake_with_gap_fraction(i, f, 10, rng) for i, f in enumerate([0.4, 0.1, 0.3, 0.2])]
        baseline = select_top_lakes(lakes, 3)
        for _ in range(5):
            shuffled = [lakes[i] for i in rng.permutation(len(lakes))]
            assert select_top_lakes(shuffled, 3) == baseline


class TestSplit:
    def _annual_series(self, years, month=6, day=1):
        years = list(years)
        sdd = 2.0 + 0.1 * np.arange(len(years))
        X = np.arange(len(years), dtype=float)[:, None]
        return series_from_arrays(1, sdd, X, ["TSc"], dates=[date(y, month, day) for y in years])

    def test_ten_annual_samples_even_split(self):
        series = self._annual_series(range(2011, 2021))
        split = split_test_block(series, years=5)
        assert split.n_pre == 5 and len(split.test) == 5

    def test_boundary_convention_1990_2020(self):
        series = self._annual_series(range(1990, 2021), month=12, day=31)
        split = split_test_block(series, years=5)
        # Latest sample 2020-12-31; the window opens strictly after 2015-12-31.
        assert max(split.pre.dates.tolist()) == date(2015, 12, 31)
        assert min(split.test.dates.tolist()) == date(2016, 12, 31)
        assert all(day > date(2015, 12, 31) for day in split.test.dates.tolist())

    def test_single_year_record_errors(self):
        series = self._annual_series([2020, 2020])
        with pytest.raises(InsufficientDataError):
            split_test_block(series, years=5)

    @pytest.mark.parametrize("years", [2020, 2021, 10**20])
    def test_window_reaching_before_year_one_holds_the_whole_record(self, years):
        # The latest visit is in 2020, so the window opens in year 0 or earlier.
        series = self._annual_series(range(2011, 2021))
        with pytest.raises(InsufficientDataError, match=f"more than the {years}-year test window"):
            split_test_block(series, years=years)

    def test_record_from_year_one(self):
        series = self._annual_series([1, 2, 3])
        split = split_test_block(series, years=2)
        assert split.pre.dates.tolist() == [date(1, 6, 1)] and split.n_pre == 1
        with pytest.raises(InsufficientDataError):
            split_test_block(series, years=3)

    def test_missing_sdd_rows_dropped_but_indices_align(self, rng):
        sdd = rng.uniform(1, 4, 12)
        sdd[[3, 7]] = np.nan
        series = series_from_arrays(1, sdd, rng.normal(size=(12, 2)), ["a", "b"], step_days=200)
        split = split_test_block(series, years=2)
        kept = np.concatenate([split.pre_rows, split.test_rows])
        assert set(kept) == set(range(12)) - {3, 7}
        for block, rows in ((split.pre, split.pre_rows), (split.test, split.test_rows)):
            assert np.array_equal(block.dates, series.dates[rows])
            assert np.array_equal(block.sdd, series.sdd[rows])
            assert np.array_equal(block.covariates, series.covariates[rows])

    def test_partition_property(self, rng):
        for trial in range(5):
            n = int(rng.integers(8, 40))
            sdd = rng.uniform(1, 4, n)
            sdd[rng.random(n) < 0.2] = np.nan
            if np.sum(~np.isnan(sdd)) < 4:
                continue
            series = series_from_arrays(1, sdd, rng.normal(size=(n, 1)), ["a"], step_days=150)
            try:
                split = split_test_block(series, years=3)
            except InsufficientDataError:
                continue
            observed = [i for i in range(n) if not np.isnan(sdd[i])]
            assert sorted(np.concatenate([split.pre_rows, split.test_rows])) == observed
            assert split.pre.dates.max() < split.test.dates.min()

    def test_split_blocks_are_copies(self, rng):
        X = rng.normal(size=(20, 2))
        sdd = rng.uniform(1, 4, 20)
        series = series_from_arrays(1, sdd, X, ["a", "b"], step_days=200)
        split = split_test_block(series, years=3)
        split.pre.covariates[:] = np.nan
        split.pre.sdd[:] = -1.0
        split.test.sdd[:] = -1.0
        assert np.array_equal(series.covariates, X)
        assert np.array_equal(series.sdd, sdd)

    def test_split_by_count(self, rng):
        series = series_from_arrays(1, rng.uniform(1, 4, 20), rng.normal(size=(20, 1)), ["a"])
        split = split_by_count(series, 12)
        assert split.n_pre == 12 and len(split.test) == 8


class TestMatrices:
    def test_covariate_matrix_marks_gaps(self, rng):
        X = rng.normal(size=(5, 2))
        X[1, 0] = np.nan
        series = series_from_arrays(1, rng.uniform(1, 3, 5), X, ["a", "b"])
        out = series.covariates
        assert np.isnan(out[1, 0]) and np.array_equal(out[~np.isnan(out)], X[~np.isnan(X)])

    def test_sdd_values(self, rng):
        sdd = rng.uniform(1, 3, 4)
        sdd[2] = np.nan
        series = series_from_arrays(1, sdd, rng.normal(size=(4, 1)), ["a"])
        out = series.sdd
        assert np.isnan(out[2]) and np.array_equal(out[[0, 1, 3]], sdd[[0, 1, 3]])
