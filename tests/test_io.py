import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointproc import (
    EventTimes,
    Grid,
    GridSpec,
    ParameterError,
    Region,
    RngStream,
    SpaceTimeEvents,
    SpatialPattern,
    simulate_csr,
    simulate_hpp,
)
import _oracles as brute
import pointproc.io as pio
from pointproc.detect import ScanResults, space_time_scan
from pointproc.io import (
    _read_table,
    read_count_values,
    read_event_times,
    read_geojson_points,
    read_points_csv,
    read_space_time_csv,
    write_curve_csv,
    write_event_times,
    write_grid_csv,
    write_points_csv,
    write_scan_csv,
    write_space_time_csv,
    write_table,
)

UNIT = Region(0, 1, 0, 1)

# values with no short decimal form; %.17g must reproduce them bit-for-bit
AWKWARD = [0.1, 1 / 3, math.pi, 2**-52, 1e300, 7.234872348723487e-05]


class TestEventTimesRoundTrip:
    def test_round_trip(self, tmp_path):
        ev = simulate_hpp(3.0, 10.0, RngStream(1))
        p = tmp_path / "ev.csv"
        write_event_times(p, ev)
        back = read_event_times(p, horizon=10.0)
        assert np.array_equal(back.times, ev.times)
        assert back.horizon == 10.0

    def test_horizon_defaults_to_last_time(self, tmp_path):
        p = tmp_path / "ev.csv"
        write_event_times(p, EventTimes([1.0, 2.5], 5.0))
        assert read_event_times(p).horizon == 2.5

    def test_awkward_floats_exact(self, tmp_path):
        times = sorted(t + 1.0 for t in AWKWARD[:4])
        p = tmp_path / "ev.csv"
        write_event_times(p, EventTimes(times, 10.0))
        assert np.array_equal(read_event_times(p, horizon=10.0).times, times)

    def test_empty(self, tmp_path):
        p = tmp_path / "ev.csv"
        write_event_times(p, EventTimes([], 4.0))
        assert read_event_times(p, horizon=4.0).times.size == 0

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "ev.csv"
        write_event_times(p, EventTimes([], 4.0))
        assert p.read_text() == "t\n"

    def test_empty_without_horizon(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("t\n")
        with pytest.raises(ParameterError, match="horizon"):
            read_event_times(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("time\n1.0\n")
        with pytest.raises(ParameterError, match="header"):
            read_event_times(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("t\n1.0\nbogus\n")
        with pytest.raises(ParameterError, match=r":3:"):
            read_event_times(p)

    def test_unsorted_rejected(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("t\n2.0\n1.0\n")
        with pytest.raises(ParameterError):
            read_event_times(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("t\n1.0\n\n2.0\n")
        assert np.array_equal(read_event_times(p, horizon=3.0).times, [1.0, 2.0])


class TestPointsRoundTrip:
    def test_round_trip(self, tmp_path):
        pat = simulate_csr(150, UNIT, RngStream(2))
        p = tmp_path / "pts.csv"
        write_points_csv(p, pat)
        assert np.array_equal(read_points_csv(p), pat.points)

    def test_awkward_floats_exact(self, tmp_path):
        pts = np.array([[a % 1.0, (a * 7) % 1.0] for a in AWKWARD])
        p = tmp_path / "pts.csv"
        write_points_csv(p, SpatialPattern(pts, UNIT))
        assert np.array_equal(read_points_csv(p), pts)

    def test_empty(self, tmp_path):
        p = tmp_path / "pts.csv"
        write_points_csv(p, SpatialPattern([], UNIT))
        assert read_points_csv(p).shape == (0, 2)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,0.5\n0.25\n")
        with pytest.raises(ParameterError, match=r":3:"):
            read_points_csv(p)

    def test_bad_column_named(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,oops\n")
        with pytest.raises(ParameterError, match="column 2"):
            read_points_csv(p)


class TestSpaceTimeRoundTrip:
    def test_round_trip(self, tmp_path):
        g = np.random.default_rng(0)
        data = np.column_stack([g.random(40), g.random(40), 8.0 * g.random(40)])
        ev = SpaceTimeEvents(data, UNIT, 8.0)
        p = tmp_path / "st.csv"
        write_space_time_csv(p, ev)
        back = read_space_time_csv(p)
        assert np.array_equal(back[:, :2], ev.xy)
        assert np.array_equal(back[:, 2], ev.t)

    def test_header(self, tmp_path):
        p = tmp_path / "st.csv"
        write_space_time_csv(p, SpaceTimeEvents([[0.5, 0.5, 1.0]], UNIT, 2.0))
        assert p.read_text().splitlines()[0] == "x,y,t"

    def test_empty(self, tmp_path):
        p = tmp_path / "st.csv"
        write_space_time_csv(p, SpaceTimeEvents([], UNIT, 2.0))
        assert read_space_time_csv(p).shape == (0, 3)


class TestGridCsv:
    def test_round_trip_counts(self, tmp_path):
        spec = GridSpec(UNIT, 3, 2)
        counts = np.array([[3, 0], [1, 7], [2, 5]])
        p = tmp_path / "grid.csv"
        write_grid_csv(p, Grid(spec, counts))
        assert np.array_equal(read_count_values(p, spec), counts)

    def test_integers_written_without_point(self, tmp_path):
        spec = GridSpec(UNIT, 2, 1)
        p = tmp_path / "grid.csv"
        write_grid_csv(p, Grid(spec, np.array([[4], [0]])), "count")
        assert p.read_text().splitlines() == ["cell_x,cell_y,count", "0,0,4", "1,0,0"]

    def test_float_values(self, tmp_path):
        spec = GridSpec(UNIT, 2, 1)
        p = tmp_path / "grid.csv"
        write_grid_csv(p, Grid(spec, np.array([[0.1], [1 / 3]])), "z")
        lines = p.read_text().splitlines()
        assert lines[0] == "cell_x,cell_y,z"
        assert float(lines[1].split(",")[2]) == 0.1
        assert float(lines[2].split(",")[2]) == 1 / 3

    def test_x_major_order(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        write_grid_csv(p, Grid(spec, np.arange(4).reshape(2, 2)), "count")
        cells = [tuple(l.split(",")[:2]) for l in p.read_text().splitlines()[1:]]
        assert cells == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_missing_cells_read_as_zero(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n1,1,9\n")
        assert np.array_equal(read_count_values(p, spec), [[0, 0], [0, 9]])

    def test_out_of_range_cell(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n5,0,1\n")
        with pytest.raises(ParameterError, match="outside"):
            read_count_values(p, spec)

    def test_non_integer_count(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n0,0,1.5\n")
        with pytest.raises(ParameterError, match="integers"):
            read_count_values(p, spec)

    def test_negative_count(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n0,0,-2\n")
        with pytest.raises(ParameterError, match="non-negative"):
            read_count_values(p, spec)

    def test_repeated_cell(self, tmp_path):
        spec = GridSpec(UNIT, 2, 2)
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n0,0,5\n1,1,2\n0,0,3\n")
        with pytest.raises(ParameterError) as exc:
            read_count_values(p, spec)
        assert str(exc.value) == f"{p}:4: cell (0, 0) repeats line 2"

    @pytest.mark.parametrize("text, want", [
        ("\n0,0,1\n  \n1,1,1.5\n", ":5: cell indices and counts must be integers"),
        ("\n\n0,0,5\n\t\n0,0,3\n", ":6: cell (0, 0) repeats line 4"),
        ("1,1,2\n\n9,0,1", ":4: cell (9, 0) outside the grid"),
    ])
    def test_lines_named_past_blank_lines(self, tmp_path, text, want):
        p = tmp_path / "grid.csv"
        p.write_text("cell_x,cell_y,value\n" + text)
        with pytest.raises(ParameterError) as exc:
            read_count_values(p, GridSpec(UNIT, 2, 2))
        assert str(exc.value) == f"{p}{want}"


class TestCurveCsv:
    def test_plain(self, tmp_path):
        p = tmp_path / "c.csv"
        write_curve_csv(p, [0.1, 0.2], [0.3, 0.9])
        assert p.read_text() == (
            "r,observed\n"
            "0.10000000000000001,0.29999999999999999\n"
            "0.20000000000000001,0.90000000000000002\n"
        )

    def test_envelope_columns(self, tmp_path):
        p = tmp_path / "c.csv"
        write_curve_csv(p, [1.0], [2.0], lower=[1.5], upper=[2.5])
        lines = p.read_text().splitlines()
        assert lines[0] == "r,observed,lower,upper"
        assert lines[1] == "1,2,1.5,2.5"

    def test_nan_survives(self, tmp_path):
        p = tmp_path / "c.csv"
        write_curve_csv(p, [1.0], [float("nan")])
        val = p.read_text().splitlines()[1].split(",")[1]
        assert math.isnan(float(val))

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ParameterError, match="length"):
            write_curve_csv(tmp_path / "c.csv", [1.0, 2.0], [0.5])
        with pytest.raises(ParameterError, match="length"):
            write_curve_csv(tmp_path / "c.csv", [1.0], [0.5], lower=[0.1, 0.2], upper=[0.9])

    def test_half_an_envelope(self, tmp_path):
        p = tmp_path / "c.csv"
        with pytest.raises(ParameterError, match="both lower and upper"):
            write_curve_csv(p, [1.0], [0.5], lower=[0.1])
        with pytest.raises(ParameterError, match="both lower and upper"):
            write_curve_csv(p, [1.0], [0.5], upper=[0.9])
        assert not p.exists()


class TestScanCsv:
    HEADER = "cx,cy,radius,t_start,t_end,observed,expected,llr,p_value"

    @pytest.fixture(scope="class")
    def scan(self):
        g = np.random.default_rng(4)
        events = SpaceTimeEvents(g.random((40, 3)), UNIT, 1.0)
        return space_time_scan(events, GridSpec(UNIT, 4, 4), 4, [0.2, 0.4], [0.3], 99,
                               RngStream(2))

    def test_columns_and_values(self, tmp_path):
        res = ScanResults((
            np.array([0.5, 0.1]), np.array([0.5, 0.9]), np.array([0.1, 0.2]),
            np.array([0.0, 0.5]), np.array([0.5, 1.0]), np.array([12, 3]),
            np.array([4.0, 2.0]), np.array([5.25, 0.25]), np.array([0.01, 0.44]),
        ))
        p = tmp_path / "scan.csv"
        write_scan_csv(p, res)
        lines = p.read_text().splitlines()
        assert lines[0] == "cx,cy,radius,t_start,t_end,observed,expected,llr,p_value"
        first = lines[1].split(",")
        assert first[5] == "12"
        assert float(first[7]) == 5.25
        assert len(lines) == 3

    def test_matches_row_by_row_writer(self, scan, tmp_path):
        # the writer that built a ScanResult per row, kept as the reference
        rows = [(r.cylinder.cx, r.cylinder.cy, r.cylinder.radius, r.cylinder.t_start,
                 r.cylinder.t_end, r.observed, r.expected, r.llr, r.p_value) for r in scan[:]]
        write_table(tmp_path / "ref.csv", self.HEADER, list(zip(*rows)))
        write_scan_csv(tmp_path / "scan.csv", scan)
        assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("top", [1, 7, 10**6])
    def test_top_is_a_prefix(self, scan, tmp_path, top):
        write_scan_csv(tmp_path / "all.csv", scan)
        write_scan_csv(tmp_path / "top.csv", scan, top=top)
        full = (tmp_path / "all.csv").read_text().splitlines(keepends=True)
        assert (tmp_path / "top.csv").read_text() == "".join(full[: 1 + top])


class TestGeoJson:
    def write(self, tmp_path, obj):
        p = tmp_path / "pts.geojson"
        p.write_text(json.dumps(obj))
        return p

    def feature(self, x, y, props=None):
        return {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [x, y]},
            "properties": props or {},
        }

    def test_read_points(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [self.feature(0.25, 0.5), self.feature(0.75, 0.1)],
        }
        xy, t = read_geojson_points(self.write(tmp_path, fc))
        assert np.array_equal(xy, [[0.25, 0.5], [0.75, 0.1]])
        assert t is None

    def test_read_times_when_all_present(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [
                self.feature(0.25, 0.5, {"t": 1.5}),
                self.feature(0.75, 0.1, {"t": 0.5}),
            ],
        }
        xy, t = read_geojson_points(self.write(tmp_path, fc))
        assert np.array_equal(t, [1.5, 0.5])

    def test_partial_times_rejected(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [self.feature(0.25, 0.5, {"t": 1.5}), self.feature(0.75, 0.1)],
        }
        with pytest.raises(ParameterError, match="only some"):
            read_geojson_points(self.write(tmp_path, fc))

    def test_non_point_geometry_rejected(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
                    "properties": {},
                }
            ],
        }
        with pytest.raises(ParameterError, match="Point"):
            read_geojson_points(self.write(tmp_path, fc))

    def test_not_feature_collection(self, tmp_path):
        with pytest.raises(ParameterError, match="FeatureCollection"):
            read_geojson_points(self.write(tmp_path, {"type": "Feature"}))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "pts.geojson"
        p.write_text("{not json")
        with pytest.raises(ParameterError, match="JSON"):
            read_geojson_points(p)

    def test_non_numeric_time(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [self.feature(0.2, 0.2, {"t": "soon"})],
        }
        with pytest.raises(ParameterError, match="not a number"):
            read_geojson_points(self.write(tmp_path, fc))

    def test_bool_and_string_coordinates_rejected(self, tmp_path):
        for coords in ([True, "0.5"], [0.25, "0.5"], [False, 0.5]):  # float() takes all three
            feat = self.feature(0.2, 0.2)
            feat["geometry"]["coordinates"] = coords
            fc = {"type": "FeatureCollection", "features": [feat]}
            with pytest.raises(ParameterError, match="malformed coordinates"):
                read_geojson_points(self.write(tmp_path, fc))

    def test_bool_and_string_times_rejected(self, tmp_path):
        for t in (False, True, "1.5"):
            fc = {"type": "FeatureCollection", "features": [self.feature(0.2, 0.2, {"t": t})]}
            with pytest.raises(ParameterError, match="property 't' is not a number"):
                read_geojson_points(self.write(tmp_path, fc))

    def test_empty_collection(self, tmp_path):
        fc = {"type": "FeatureCollection", "features": []}
        xy, t = read_geojson_points(self.write(tmp_path, fc))
        assert xy.shape == (0, 2)
        assert t is None


def percent_table(header: str, cols) -> bytes:
    """A table as `write_table` defines it: '%.17g' for float columns and
    '%s' for the rest, row by row."""
    cols = [np.asarray(c) for c in cols]
    fmts = ["%.17g" if c.dtype.kind == "f" else "%s" for c in cols]
    rows = (",".join(f % (v,) for f, v in zip(fmts, row)) for row in zip(*(c.tolist() for c in cols)))
    return "".join(f"{line}\n" for line in [header, *rows]).encode()


def written(header: str, cols) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        write_table(p, header, cols)
        return p.read_bytes()


def bits(*floats) -> list[int]:
    return np.array(floats, dtype=np.float64).view(np.uint64).tolist()


# each power of ten that '%.17g' prints without an exponent, and 1e17, with
# the doubles one ulp either side
POWERS = np.array([float(f"1e{k}") for k in range(-4, 18)])
NEAR_POWERS = np.concatenate([np.nextafter(POWERS, 0), POWERS, np.nextafter(POWERS, np.inf)])


class TestWriterFormat:
    """write_table's numpy formatting against '%.17g' and '%s'."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=16))
    # ties to even: ...0.25 -> ...0.2 and ...0.75 -> ...0.8
    @example(bits(1000000000000000.25, 1000000000000000.75, 0.5, 2.5))
    @example(bits(*NEAR_POWERS))
    # literals that round to the doubles 1e17 and 1e-4, and the double below 1e17
    @example(bits(9.9999999999999999e16, 9.99999999999999999e-5, 99999999999999984.0))
    @example(bits(0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf))
    @example([2**63, 2**63 - 1, 2**64 - 1, 0, 1])  # int64 min and max, uint64 max
    def test_bit_patterns_as_percent(self, patterns):
        # the integers as doubles, negated doubles, int64 and uint64
        u = np.array(patterns, dtype=np.uint64)
        cols = [u.view(np.float64), -u.view(np.float64), u.view(np.int64), u]
        assert written("f,g,i,u", cols) == percent_table("f,g,i,u", cols)

    @pytest.mark.parametrize("off", [-1, 1])
    def test_exponent_guess_off_by_one(self, monkeypatch, off):
        values = np.concatenate([NEAR_POWERS, POWERS * 1.5, POWERS * 9.999, POWERS / 3])
        guesses = []

        def guess(a, real=pio._exponent_guess):
            guesses.append(np.clip(real(a) + off, -4, 16))
            return guesses[-1]

        monkeypatch.setattr(pio, "_exponent_guess", guess)
        assert written("x,y", [values, -values]) == percent_table("x,y", [values, -values])
        assert guesses  # the writer took the wrong guesses

    def test_other_columns_as_percent(self):
        cols = [
            np.array([0.1, 1e-5, 3e38, -0.0], np.float32),
            np.array([1e-300, 0.25, -1e300, 7], np.longdouble),
            np.array([True, False, True, False]),
            np.array(["a", "\u00e9", "", "x,y"]),
            np.array([None, 1.5, "s" * 100, "x\x00"], dtype=object),
            np.array([1 + 2j, 0, -1j, 3]),
            np.array([-128, 0, 127, 5], np.int8),
            np.array([0, 255, 7, 10], np.uint8),
        ]
        header = ",".join("abcdefgh")
        assert written(header, cols) == percent_table(header, cols)

    def test_no_numeric_cell_shows_a_nul(self):
        # bytes 0, 25-27 and 49-51 of a slot are NUL in every cell: the prefix's
        # first byte and the tails of the point and separator words.  A '%'
        # cell shows byte 0, and the writer splits the shown bytes there
        nul = np.isin(np.arange(4 * pio._WORDS), [0, 25, 26, 27, 49, 50, 51])
        assert not (pio._MASKS & nul).any()

    def test_blocks_of_cells(self, monkeypatch):
        monkeypatch.setattr(pio, "_BLOCK_CELLS", 7)  # 4 columns: a row per block
        g = np.random.default_rng(3)
        cols = [g.random(50), g.integers(-9, 9, 50), np.array(["s"] * 50),
                np.where(g.random(50) < 0.3, np.nan, g.normal(size=50) * 1e20)]
        assert written("a,b,c,d", cols) == percent_table("a,b,c,d", cols)

    def test_malformed_columns_named(self, tmp_path):
        p = tmp_path / "t.csv"
        with pytest.raises(ParameterError, match="'x' has no columns"):
            write_table(p, "x", [])
        with pytest.raises(ParameterError, match="column 'y' is 2-D, not 1-D"):
            write_table(p, "x,y", [[1.0, 2.0], [[1.0], [2.0]]])
        with pytest.raises(ParameterError, match="column 'x' is 0-D"):
            write_table(p, "x", [3.0])
        with pytest.raises(ParameterError, match="'a,b' names 2 columns, got 1"):
            write_table(p, "a,b", [np.arange(3)])
        assert not p.exists()


# the line breaks of str.splitlines() other than LF; reading a file as text
# turns CR and CR LF into LF
LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
INT64 = st.integers(-(2**63), 2**63 - 1)


class TestCodec:
    """write_table and _read_table, the one CSV writer and reader."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), INT64), max_size=12))
    @example([(-0.0, 0), (5e-324, -1), (math.inf, 2**63 - 1), (-math.inf, 7), (math.nan, 3)])
    def test_floats_as_17g_integers_without_point(self, rows):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.csv"
            floats = np.array([r[0] for r in rows], dtype=float)
            ints = np.array([r[1] for r in rows], dtype=np.int64)
            write_table(p, "f,i", [floats, ints])
            data = p.read_bytes()
        assert data == "".join(
            f"{line}\n" for line in ["f,i", *(f"{format(f, '.17g')},{i}" for f, i in rows)]
        ).encode()
        assert all("." not in line.split(",")[1] for line in data.decode().splitlines()[1:])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(FINITE, FINITE), max_size=12))
    @example([(-0.0, 5e-324), (2.2250738585072014e-308, -1.7976931348623157e308)])
    def test_finite_round_trip_bit_exact(self, rows):
        cols = np.array(rows, dtype=float).reshape(-1, 2)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.csv"
            write_table(p, "a,b", cols.T)
            table = _read_table(p, "a,b")
        assert table.shape == cols.shape
        assert table.tobytes() == cols.tobytes()

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\n\n  \n\t", "a,b\n" + LINE_BREAKS])
    def test_header_only_reads_without_warning(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_table(p, "a,b").shape == (0, 2)

    @pytest.mark.parametrize("newline", LINE_BREAKS)
    def test_every_line_break_goes_through_numpy(self, tmp_path, monkeypatch, newline):
        p = tmp_path / "t.csv"
        p.write_text(newline.join(["a,b", "1,2.5", "", "-3,1e300", "4,5"]), encoding="utf-8")
        want, calls = brute.read_table_rows(p, "a,b"), []

        def loadtxt(*args, real=np.loadtxt, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        got = _read_table(p, "a,b")
        assert len(calls) == 1
        assert got.shape == want.shape == (3, 2)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(FINITE, FINITE), max_size=6),
        blanks=st.lists(st.tuples(st.integers(0, 20), st.sampled_from(["", "  ", "\t"])),
                        max_size=6),
        bad=st.one_of(st.none(), st.tuples(
            st.integers(0, 20), st.sampled_from(["1", "1,2,3", "nope,1", "1,x1", "1,"]))),
    )
    def test_blank_lines_and_bad_rows(self, rows, blanks, bad):
        lines = ["a,b"] + [f"{x!r},{y!r}" for x, y in rows]
        for pos, text in blanks + ([bad] if bad else []):  # anywhere after the header
            at = 1 + pos % len(lines)
            lines.insert(at, text)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.csv"
            p.write_text("\n".join(lines) + "\n")
            if bad is None:
                table = _read_table(p, "a,b")
                assert table.tolist() == [list(r) for r in rows]
                return
            with pytest.raises(ParameterError) as info:
                _read_table(p, "a,b")
        fields = bad[1].split(",")
        if len(fields) != 2:
            want = f"t.csv:{at + 1}: expected 2 fields, got {len(fields)}"
        else:
            col = 1 if fields[0] == "nope" else 2
            want = f"t.csv:{at + 1}: column {col}: not a number: {fields[col - 1]!r}"
        assert str(info.value).endswith(want)

    # fields the reader and the row-by-row oracle must agree on: what float()
    # accepts with and without padding, and what it rejects.  numpy's parser
    # refuses "1_0", "1_000" and non-ASCII digits, which float() accepts.
    VALID = st.one_of(
        st.floats().map(repr),
        st.sampled_from(["1_0", "1_000", " inf", "Infinity", "-Infinity", "nan", "-nan", "-0.0",
                         "+1", "+.25", "1E2", "5e-324", " 2.5 ", "\t3", "1e999", "\u00a04",
                         "\u0661\u0662", "\uff17", "5\u2003"]),
    )
    FIELD = st.one_of(VALID, st.sampled_from(
        ["1__0", "_1", "x", "1e", "0x10", "--1", "", " ", "1 2", "\x1c6", "inf inity", "#", "#1",
         '"1"', "'2'", "1\x00", "\x1f6", "7\x1f"]))

    @settings(max_examples=400, deadline=None)
    @given(
        k=st.integers(1, 3),
        data=st.data(),
        newline=st.sampled_from(["\n", "\r\n"]),
        final_newline=st.booleans(),
    )
    @example(k=2, data=[], newline="\n", final_newline=True)  # an empty body
    # a bad number on an earlier line than a wrong field count
    @example(k=2, data=["1,2", "3,x", "4,5,6"], newline="\n", final_newline=True)
    @example(k=1, data=["nope", "1,2"], newline="\r\n", final_newline=False)
    # blank lines before a bad line, which is named by its line in the file
    @example(k=2, data=["", "1,2", "  ", "\t", "3,nope"], newline="\n", final_newline=True)
    @example(k=1, data=["", "1", " ", "2,3"], newline="\r\n", final_newline=True)
    # a comment sign, quotes and a trailing comma are fields like any other
    @example(k=2, data=["#1,2", '"1",2', "1,2,"], newline="\n", final_newline=True)
    @example(k=2, data=["1_000,\u0661"], newline="\n", final_newline=True)
    # a line break of str.splitlines() other than LF
    @example(k=2, data=["1,\x1c2"], newline="\n", final_newline=True)
    @example(k=1, data=["1\u20282"], newline="\n", final_newline=False)
    # numpy's parser strips "\x1f" around a number; float() refuses it
    @example(k=2, data=["1,2", "3,\x1f4"], newline="\n", final_newline=True)
    def test_fast_path_matches_row_parser(self, k, data, newline, final_newline):
        header = ",".join("abc"[:k])
        line = st.one_of(
            st.lists(self.FIELD, min_size=k, max_size=k).map(",".join),  # k fields
            st.lists(self.FIELD, min_size=1, max_size=k + 2).map(",".join),  # any count
            st.sampled_from(["", "  ", "\t"]),  # blank lines
        )
        valid = st.lists(self.VALID, min_size=k, max_size=k).map(",".join)
        if isinstance(data, list):
            lines = data
        else:  # half the texts are valid throughout, so a parse returns an array
            lines = data.draw(st.lists(data.draw(st.sampled_from([line, valid])), max_size=8))
        text = newline.join([header, *lines]) + (newline if final_newline else "")
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.csv"
            p.write_bytes(text.encode())
            results = []
            for read in (_read_table, brute.read_table_rows):
                try:
                    results.append(read(p, header))
                except ParameterError as e:
                    results.append(str(e))
        got, want = results
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
