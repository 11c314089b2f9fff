import dataclasses
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normfit import (
    ConfigError,
    EstimationParams,
    NoiseSpec,
    NormalNotUnit,
    ParseError,
    PointCloud,
    ShapeSpec,
    add_noise,
    gen_shape,
    pca_baseline,
    read_cloud,
    read_ply,
    read_xyz,
    rms_angle,
    write_cloud,
    write_ply,
    write_xyz,
)
from normfit import config as cfgmod
from normfit import io as iomod
from normfit.cli import _load_config, build_parser, cli_main
from normfit.metrics import CSV_HEADER

from conftest import read_ply_lines, read_xyz_lines, write_ply_rows, write_xyz_rows

# file-format names of the adaptive table's elements: (prefix, first index)
TUPLE_KEYS = {"thresholds": ("adaptive_l", 0), "sizes": ("adaptive_k", 1)}


def config_leaves(obj, path=()):
    """(key, attribute path, value) of every leaf of a dataclass tree."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from config_leaves(value, path + (f.name,))
        elif isinstance(value, tuple):
            prefix, first = TUPLE_KEYS[f.name]
            for i, item in enumerate(value):
                yield f"{prefix}{first + i}", path + (f.name, i), item
        else:
            yield f.name, path + (f.name,), value


def lookup(obj, path):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def make_cloud(rng, n=20, with_normals=True):
    pts = rng.normal(size=(n, 3))
    normals = None
    if with_normals:
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=pts, normals=normals)


class TestXyz:
    def test_roundtrip_points_only(self, rng, tmp_path):
        cloud = make_cloud(rng, with_normals=False)
        path = tmp_path / "c.xyz"
        write_xyz(cloud, path)
        back = read_xyz(path)
        assert np.allclose(back.points, cloud.points, atol=1e-9)
        assert back.normals is None

    def test_roundtrip_with_normals(self, rng, tmp_path):
        cloud = make_cloud(rng)
        path = tmp_path / "c.xyz"
        write_xyz(cloud, path)
        back = read_xyz(path)
        assert np.allclose(back.points, cloud.points, atol=1e-9)
        assert np.allclose(back.normals, cloud.normals, atol=1e-9)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3   # inline comment\n4 5 6\n")
        cloud = read_xyz(path)
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n1 2 3 4\n")
        with pytest.raises(ParseError) as exc:
            read_xyz(path)
        assert exc.value.line == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 three\n")
        with pytest.raises(ParseError) as exc:
            read_xyz(path)
        assert exc.value.line == 1

    def test_mixed_normal_presence(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3 0 0 1\n4 5 6\n")
        with pytest.raises(ParseError):
            read_xyz(path)

    def test_non_unit_normal_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3 0 0 2\n")
        with pytest.raises(NormalNotUnit):
            read_xyz(path)

    def test_slightly_off_unit_renormalized(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text(f"1 2 3 0 0 {1 + 5e-4}\n")
        cloud = read_xyz(path)
        assert np.linalg.norm(cloud.normals[0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError):
            read_xyz(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# one-character separators that str.split() takes as whitespace but that do
# not end a line when a text file is iterated
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c"])
NUMBERS = st.one_of(FINITE.map(lambda v: "%.17g" % v), FINITE.map(repr),
                    st.integers(-10**6, 10**6).map(str),
                    st.sampled_from(["-0", "+1.5", ".5", "5.", "1_0", "1e-320", "1E+300"]))


@st.composite
def xyz_texts(draw):
    """XYZ files with comments, blank lines, CRLF/CR endings, tabs, trailing
    whitespace, and now and then a wrong value count or a non-number."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["xyz", "xyz", "normal", "normal", "blank",
                                     "comment", "count", "word"]))
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "comment":
            body = "#" + draw(st.sampled_from(["", " note", " 1 2 3"]))
        else:
            width = {"xyz": 3, "normal": 6, "word": 3}.get(kind)
            width = width or draw(st.sampled_from([1, 2, 4, 5, 7]))
            tokens = [draw(NUMBERS) for _ in range(width)]
            if kind == "normal":
                v = np.array([draw(st.integers(-3, 3)) for _ in range(3)], dtype=float)
                v = v / (np.linalg.norm(v) or 1.0)   # a zero vector stays non-unit
                tokens[3:] = ["%.17g" % x for x in v]
            if kind == "word":
                tokens[draw(st.integers(0, 2))] = draw(st.sampled_from(["abc", "1,5", "0x1"]))
            body = draw(st.sampled_from(["", " ", "\t"])) + "".join(
                tok + draw(SEPARATORS) for tok in tokens[:-1]) + tokens[-1]
            body += draw(st.sampled_from(["", " ", "\t ", " # trailing", "#1 2 3"]))
        lines.append(body + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines) + draw(st.sampled_from(["", "1 2 3"]))


@st.composite
def ply_texts(draw):
    """ASCII PLY files with or without normals, extra and reordered vertex
    properties, a face element, blank lines, CRLF/CR endings, extra fields,
    and now and then a short line, a non-number (in a kept or an ignored
    field), a non-finite value or a vertex count off by up to two."""
    props = ["x", "y", "z"] + draw(st.sampled_from([[], ["nx", "ny", "nz"]]))
    props = draw(st.permutations(
        props + draw(st.sampled_from([[], ["red", "green", "blue"], ["intensity"]]))))
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["vertex", "vertex", "vertex", "blank", "extra", "short",
                                     "word", "non-finite"]))
        if kind == "blank":
            body.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        v = np.array([draw(st.integers(-2, 2)) for _ in range(3)], dtype=float)
        v = v / (np.linalg.norm(v) or 1.0)   # a zero vector stays non-unit
        tokens = ["%.17g" % v["xyz".index(p[1])] if p in ("nx", "ny", "nz") else draw(NUMBERS)
                  for p in props]
        if kind == "extra":
            tokens += [draw(NUMBERS) for _ in range(draw(st.integers(1, 3)))]
        elif kind == "short":
            tokens = tokens[:draw(st.integers(1, len(tokens) - 1))]
        elif kind != "vertex":
            bad = {"word": ["abc", "1,5", "0x1"], "non-finite": ["nan", "-inf", "1e400"]}[kind]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(bad))
        body.append(draw(st.sampled_from(["", " "])) + "".join(
            tok + draw(SEPARATORS) for tok in tokens[:-1]) + tokens[-1])
    n_vertex = sum(1 for line in body if line.strip()) + draw(st.integers(-2, 2))
    header = ["ply", "format ascii 1.0", f"element vertex {n_vertex}"]
    header += [f"property float {p}" for p in props]
    if draw(st.booleans()):
        header += ["element face 0", "property list uchar int vertex_indices"]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(header + ["end_header"] + body) + draw(st.sampled_from(["", newline]))


def read_outcome(reader, path):
    """The arrays a reader returns, or the type and line of what it raises."""
    try:
        cloud = reader(path)
    except (ParseError, NormalNotUnit) as exc:
        return type(exc), exc.__dict__.get("line")
    normals = None if cloud.normals is None else cloud.normals.tobytes()
    return cloud.points.shape, cloud.points.tobytes(), normals


def finite_clouds(max_n=30):
    """Clouds of arbitrary finite coordinates, with random unit normals."""
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.lists(FINITE, min_size=3 * n, max_size=3 * n), st.integers(0, 2**32 - 1)))


class TestArrayIo:
    """The array readers and writers against the line-by-line oracles."""

    @settings(max_examples=300, deadline=None)
    @given(text=xyz_texts())
    def test_read_xyz_matches_line_reader(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("xyz") / "c.xyz"
        path.write_bytes(text.encode())
        assert read_outcome(read_xyz, path) == read_outcome(read_xyz_lines, path)

    @settings(max_examples=300, deadline=None)
    @given(text=ply_texts())
    def test_read_ply_matches_line_reader(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("ply") / "c.ply"
        path.write_bytes(text.encode())
        assert read_outcome(read_ply, path) == read_outcome(read_ply_lines, path)

    @pytest.mark.parametrize("text, line", [
        ("1 2 3\r\n\r\n4 5\r\n", 3),
        ("1 2 3\r4\x0c5\x0b6\rx 1 2\n", 3),
        ("1 2 3 0 0 1\n# c\n\t4 5 6 \n", 3),
        ("1 2 3\n\n4 5 6 7 8 9 # n\n", None),
        ("1 2 x\n1 2\n", 1),
        ("1 2\n1 2 x\n", 1),
        ("1 2 3 0 0 1\n1 2 x\n1\n", 2),
    ])
    def test_read_xyz_error_lines(self, text, line, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_bytes(text.encode())
        for reader in (read_xyz, read_xyz_lines):
            with pytest.raises(ParseError) as exc:
                reader(path)
            assert exc.value.line == line, reader

    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_value_names_its_line(self, value, tmp_path, capsys):
        path = tmp_path / "c.xyz"
        path.write_text(f"0 0 0\n# comment\n1 {value} 2\n3 4 5\n")
        with pytest.raises(ParseError) as exc:
            read_xyz(path)
        assert exc.value.line == 3
        assert cli_main(["estimate", "--in", str(path), "--out", str(tmp_path / "o.xyz")]) == 2
        assert "line 3" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(cloud=finite_clouds())
    def test_writers_match_row_writers(self, cloud, tmp_path_factory):
        values, seed = cloud
        pts = np.reshape(values, (-1, 3))
        normals = np.random.default_rng(seed).normal(size=pts.shape)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        ref = np.roll(normals, 1, axis=0)
        with_normals = PointCloud(points=pts, normals=normals)
        d = tmp_path_factory.mktemp("w")
        for cloud, kw in ((PointCloud(points=pts), {}), (with_normals, {}),
                          (with_normals, {"reference_normals": ref})):
            if not kw:
                write_xyz(cloud, d / "a.xyz")
                write_xyz_rows(cloud, d / "b.xyz")
                assert (d / "a.xyz").read_bytes() == (d / "b.xyz").read_bytes()
            write_ply(cloud, d / "a.ply", **kw)
            write_ply_rows(cloud, d / "b.ply", **kw)
            assert (d / "a.ply").read_bytes() == (d / "b.ply").read_bytes()

    def test_writers_match_row_writers_across_chunks(self, rng, tmp_path):
        cloud = make_cloud(rng, n=10_001)
        ref = make_cloud(rng, n=10_001).normals
        for write, oracle, kw in ((write_xyz, write_xyz_rows, {}),
                                  (write_ply, write_ply_rows, {"reference_normals": ref})):
            write(cloud, tmp_path / "a", **kw)
            oracle(cloud, tmp_path / "b", **kw)
            assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(FINITE, st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1e-300, 1e-300])),
        min_size=3, max_size=60).map(lambda v: v[:len(v) - len(v) % 3]))
    def test_write_read_round_trips_exactly(self, values, tmp_path_factory):
        pts = np.reshape(values, (-1, 3))
        d = tmp_path_factory.mktemp("rt")
        for name in ("c.xyz", "c.ply"):
            write_cloud(PointCloud(points=pts), d / name)
            assert read_cloud(d / name).points.tobytes() == pts.tobytes()


def sphere_lines(n, normals=False):
    """The "%.17g" lines of an n-point sphere, with its normals or without."""
    cloud = gen_shape(ShapeSpec(kind="sphere", n_points=n, seed=3))
    values = np.hstack([cloud.points, cloud.normals]) if normals else cloud.points
    return [" ".join("%.17g" % v for v in row) for row in values]


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")


PLY_NORMALS = PLY_HEADER.replace("end_header", "property float nx\nproperty float ny\n"
                                               "property float nz\nend_header")
# one character inside a line: not a number for float(), or whitespace to str.split()
ODD_CHARS = ["\x00", "\xa0", "\x0b", "\x0c", "\x1c"]
ORACLES = {"c.xyz": read_xyz_lines, "c.ply": read_ply_lines}


class TestReadPaths:
    """Bodies numpy's loadtxt refuses, or might read otherwise than the line
    oracles, are read a line at a time; files `write_cloud` writes are not."""

    @pytest.mark.parametrize("name", ["c.xyz", "c.ply"])
    def test_crlf_comment_and_blank_lines(self, name, tmp_path):
        text = {"c.xyz": "1 2 3\r\n# a comment 4 5 6\r\n4 5 6 # 7 8 9\r\n\r\n7 8 9\r\n",
                "c.ply": PLY_HEADER.format(3).replace("\n", "\r\n")
                + "1 2 3\r\n\r\n4 5 6\r\n7 8 9\r\n"}[name]
        path = tmp_path / name
        path.write_bytes(text.encode())
        expected = read_outcome(ORACLES[name], path)
        assert expected[0] == (3, 3)
        with warnings.catch_warnings(), mock.patch.object(
                iomod, "_scan", side_effect=AssertionError("line scan entered")):
            warnings.simplefilter("error")      # a warning would enter the line scan
            assert read_outcome(read_cloud, path) == expected

    # loadtxt's errors name a data row; the line scan names the file line
    @pytest.mark.parametrize("fault, normals, message", [
        ("1 two 3", False, "non-numeric"),
        ("1 2 3 4", False, "expected 3 or 6 values"),
        ("1 2 3", True, "line without normal"),
    ])
    def test_xyz_error_far_into_a_file_names_its_line(self, fault, normals, message, tmp_path):
        lines = sphere_lines(3000, normals)
        lines[2499] = fault
        path = tmp_path / "c.xyz"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_xyz(path)
        assert exc.value.line == 2500
        assert read_outcome(read_xyz_lines, path) == (ParseError, 2500)

    @pytest.mark.parametrize("fault, message", [("1 two 3", "non-numeric"), ("1 2", "too short")])
    def test_ply_error_far_into_a_file_names_its_line(self, fault, message, tmp_path):
        lines = sphere_lines(3000)
        lines[2499] = fault
        path = tmp_path / "c.ply"
        path.write_text(PLY_HEADER.format(3000) + "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_ply(path)
        assert exc.value.line == 7 + 2500
        assert read_outcome(read_ply_lines, path) == (ParseError, 7 + 2500)

    @pytest.mark.parametrize("name", ["c.xyz", "c.ply"])
    def test_parse_error_outranks_an_earlier_non_finite_value(self, name, tmp_path):
        lines = sphere_lines(3000)
        lines[9] = "nan 0 0"
        lines[2499] = "1 two 3"
        header = PLY_HEADER.format(3000) if name == "c.ply" else ""
        path = tmp_path / name
        path.write_text(header + "\n".join(lines) + "\n")
        line = header.count("\n") + 2500
        assert read_outcome(read_cloud, path) == (ParseError, line)
        lines[2499] = lines[0]
        path.write_text(header + "\n".join(lines) + "\n")
        assert read_outcome(read_cloud, path) == (ParseError, header.count("\n") + 10)

    @pytest.mark.parametrize("name", ["c.xyz", "c.ply"])
    def test_the_first_non_finite_line_is_named(self, name, tmp_path):
        header = PLY_HEADER.format(4) if name == "c.ply" else ""
        path = tmp_path / name
        path.write_text(header + "1 2 3\n0 0 -inf\n4 5 6\nnan 0 0\n")
        with pytest.raises(ParseError, match="not finite") as exc:
            read_cloud(path)
        assert exc.value.line == header.count("\n") + 2

    @pytest.mark.parametrize("name, text", [
        ("c.xyz", "1_0 2 3\n4 5 6_5\n"),
        ("c.ply", PLY_HEADER.format(2) + "1_0 2 3\n4 5 6_5\n"),
        ("c.xyz", "1 2 3 4\n5 6 7 8\n"),
        ("c.xyz", "1 2 3 0 0 1\n1 2 3 4 5 6 7\n"),
        ("c.ply", PLY_HEADER.format(3) + "1 2 3\n\n4 5 6\n"),
        ("c.ply", PLY_HEADER.format(2) + "1 2 3\n\n\n"),
        ("c.ply", PLY_NORMALS.format(2) + "1 2 3 0 0 1\n1 2 3\n"),
        ("c.ply", PLY_HEADER.replace("end_header", "property float i\nend_header").format(2)
         + "1 2 3 4\n1 2 3\n"),
        ("c.ply", PLY_HEADER.format(2) + "1 2 3 # a\n4 5 6\n"),
        ("c.ply", PLY_HEADER.format(2) + "1 2 3\n# 4 5 6\n"),
        ("c.ply", PLY_HEADER.format(2) + "1 # 3\n4 5 6\n"),
        ("c.ply", PLY_HEADER.format(2) + "1 2 3\n4 5 6\n7 8 x\n"),
    ] + [(name, header + text.format(c)) for c in ODD_CHARS
         for name, header in (("c.xyz", ""), ("c.ply", PLY_HEADER.format(2)))
         for text in ("1{}2 3\n4 5 6\n", "1{}2 3 4\n4 5 6\n", "1 2 3{}\n4 5 6\n", "{}1 2 3\n4 5 6\n")])
    def test_texts_loadtxt_may_read_otherwise_match_line_reader(self, name, text, tmp_path):
        path = tmp_path / name
        path.write_bytes(text.encode())
        assert read_outcome(read_cloud, path) == read_outcome(ORACLES[name], path)

    @pytest.mark.parametrize("name, text", [
        ("c.xyz", ""), ("c.xyz", "\n\n"), ("c.xyz", "# only a comment\n"),
        ("c.xyz", " \t\n# 1 2 3\r\n"), ("c.ply", PLY_HEADER.format(0) + "1 2 3\n"),
        ("c.ply", PLY_HEADER.format(-1) + "1 2 3\n"),
    ])
    def test_empty_body_has_no_points(self, name, text, tmp_path):
        path = tmp_path / name
        path.write_bytes(text.encode())
        for action in ("error", "always"):      # loadtxt warns on input without data
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(ParseError, match="no points found") as exc:
                    read_cloud(path)
            assert exc.value.line is None
            assert all("contained no data" in str(w.message) for w in caught), caught
        assert read_outcome(ORACLES[name], path) == (ParseError, None)

    def test_blank_ply_body_lines_read_without_warning(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(PLY_NORMALS.format(3) + "\n1 2 3 0 0 1\n\n \n4 5 6 0 1 0\n\n"
                        "7 8 9 1 0 0\n\n")
        with warnings.catch_warnings(record=True) as caught, mock.patch.object(
                iomod, "_scan", side_effect=AssertionError("line scan entered")):
            warnings.simplefilter("always")
            outcome = read_outcome(read_cloud, path)
        assert caught == []
        assert outcome == read_outcome(read_ply_lines, path)
        assert outcome[0] == (3, 3) and outcome[2] is not None

    def test_concurrent_reads_leave_the_warning_filters_alone(self, tmp_path):
        texts = {"a.xyz": "", "b.xyz": "1_0 2 3\n", "c.xyz": "1 2 3\n4 5 6\n",
                 "d.ply": PLY_HEADER.format(2) + "1 2 3\n\n4 5 6\n",
                 "e.ply": PLY_HEADER.format(3) + "1 2 3\n"}
        paths = []
        for name, text in texts.items():
            paths.append(tmp_path / name)
            paths[-1].write_text(text)
        expected = [read_outcome(ORACLES["c" + p.suffix], p) for p in paths]
        outcomes = []

        def work():     # each read's arrays or error, and the filters the other threads see
            outcomes.extend(read_outcome(read_cloud, p) == e and warnings.filters == before
                            for _ in range(100) for p, e in zip(paths, expected))

        interval = sys.getswitchinterval()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # loadtxt warns on the empty text
            before = list(warnings.filters)
            sys.setswitchinterval(1e-6)         # switch threads inside every read
            try:
                threads = [threading.Thread(target=work) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert warnings.filters == before
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 3 * 100 * len(paths) and all(outcomes)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("kind", ["sphere", "wedge", "plane"])
    def test_written_files_skip_the_line_scan(self, kind, newline, tmp_path):
        cloud = gen_shape(ShapeSpec(kind=kind, n_points=500, seed=4))
        ref = np.roll(cloud.normals, 1, axis=0)
        points = PointCloud(points=cloud.points)
        cases = [("c.xyz", points, {}, 0), ("c.xyz", cloud, {}, 0), ("c.ply", points, {}, 0),
                 ("c.ply", cloud, {}, 0), ("c.ply", cloud, {"reference_normals": ref}, 0),
                 ("c.xyz", cloud, {}, 1), ("c.ply", cloud, {}, 1)]
        with warnings.catch_warnings(), mock.patch.object(
                iomod, "_scan", side_effect=AssertionError("line scan entered")):
            warnings.simplefilter("error")      # a warning would enter the line scan
            for name, written, kw, blank in cases:
                path = tmp_path / name
                write_cloud(written, path, **kw)
                lines = path.read_bytes().split(b"\n")
                lines[len(lines) // 2:len(lines) // 2] = [b""] * blank    # a blank body line
                path.write_bytes(newline.encode().join(lines))
                outcome = read_outcome(read_cloud, path)
                assert outcome[1] == written.points.tobytes()
                assert (outcome[2] is None) == (written.normals is None)
                assert outcome == read_outcome(ORACLES[name], path)


def step_overheads(src, dst):
    """tracemalloc peak of each step of read -> PCA (k = 64) -> write, less
    what was allocated before the step and the arrays it returns."""
    steps = {}

    def run(name, step, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = step(*args)
        kept = 0 if out is None else out.points.nbytes + getattr(out.normals, "nbytes", 0)
        steps[name] = tracemalloc.get_traced_memory()[1] - start - kept
        return out

    tracemalloc.start()
    try:
        cloud = run("read", read_cloud, src)
        run("write", write_cloud, run("pca", pca_baseline, cloud, 64), dst)
    finally:
        tracemalloc.stop()
    return steps


def noisy_sphere(n):
    return add_noise(gen_shape(ShapeSpec(kind="sphere", n_points=n, seed=5)),
                     NoiseSpec(std_pct_bbox_diag=0.5, seed=6))


class TestMemory:
    # Inputs have no normals, as the benchmark's.
    @pytest.mark.parametrize("suffix", [".xyz", ".ply"])
    def test_read_pca_write_hold_a_few_mb_above_their_arrays(self, suffix, tmp_path):
        over = {}
        for n in (10_000, 40_000):
            src = tmp_path / f"in{n}{suffix}"
            write_cloud(PointCloud(points=noisy_sphere(n).points), src)
            over[n] = step_overheads(src, tmp_path / f"out{n}{suffix}")
        for step in over[10_000]:
            # a few 2 MB blocks at either size
            assert over[10_000][step] < 8e6 and over[40_000][step] < 8e6, (step, over)

    @pytest.mark.parametrize("suffix", [".xyz", ".ply"])
    def test_read_with_normals_holds_one_copy_of_its_values(self, suffix, tmp_path):
        for n in (10_000, 40_000):
            noisy = noisy_sphere(n)
            over = {}
            for key, cloud in (("points", PointCloud(points=noisy.points)), ("normals", noisy)):
                src = tmp_path / f"{key}{n}{suffix}"
                write_cloud(cloud, src)
                over[key] = step_overheads(src, tmp_path / f"out{n}{suffix}")
            assert all(v < 8e6 for v in over["normals"].values()), over
            # a points-only read returns the array it parsed
            assert over["points"]["read"] < 24 * n, (n, over)
            # beyond what a points-only read holds: the parsed (N, 6) values
            # while the returned points and normals are copied out of them
            assert over["normals"]["read"] < over["points"]["read"] + 2 * 24 * n, (n, over)


class TestPly:
    def test_roundtrip(self, rng, tmp_path):
        cloud = make_cloud(rng)
        path = tmp_path / "c.ply"
        write_ply(cloud, path)
        back = read_ply(path)
        assert np.allclose(back.points, cloud.points, atol=1e-9)
        assert np.allclose(back.normals, cloud.normals, atol=1e-9)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\n"
                        "element vertex 1\nproperty float x\nproperty float y\n"
                        "property float z\nend_header\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("not a ply file\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n0 0 0\n1 1 1\n")
        with pytest.raises(ParseError):
            read_ply(path)

    @pytest.mark.parametrize("header, line", [
        ("format\nelement vertex 1\n", 2),            # no format named
        ("format ascii 1.0\nelement vertex two\n", 3),
    ])
    def test_malformed_header_names_its_line(self, header, line, tmp_path, capsys):
        path = tmp_path / "c.ply"
        path.write_text(f"ply\n{header}property float x\nproperty float y\n"
                        "property float z\nend_header\n0 0 0\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == line
        assert cli_main(["estimate", "--in", str(path), "--out", str(tmp_path / "o.xyz")]) == 2
        assert f"line {line}" in capsys.readouterr().err

    def test_non_numeric_vertex_names_its_line(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n0 0 0\n\n1 one 1\n")
        with pytest.raises(ParseError) as exc:
            read_ply(path)
        assert exc.value.line == 10

    def test_error_colors_zero_error_all_blue(self, rng, tmp_path):
        cloud = make_cloud(rng, n=10)
        path = tmp_path / "c.ply"
        write_ply(cloud, path, reference_normals=cloud.normals)
        rows = [ln.split() for ln in path.read_text().splitlines()
                if ln and ln[0] not in "pef"]
        for row in rows:
            r, g, b = row[-3:]
            assert (r, g, b) == ("0", "0", "255")

    def test_error_colors_right_angle_all_red(self, tmp_path):
        pts = np.zeros((4, 3))
        normals = np.tile([1.0, 0.0, 0.0], (4, 1))
        ref = np.tile([0.0, 0.0, 1.0], (4, 1))
        path = "/tmp/_does_not_matter.ply"
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.ply")
            write_ply(PointCloud(points=pts, normals=normals), path,
                      reference_normals=ref)
            with open(path) as fh:
                rows = [ln.split() for ln in fh.read().splitlines()
                        if ln and ln[0] not in "pef"]
        for row in rows:
            assert row[-3:] == ["255", "0", "0"]

    def test_dispatch_by_extension(self, rng, tmp_path):
        cloud = make_cloud(rng)
        for name in ("c.ply", "c.xyz", "c.txt"):
            path = tmp_path / name
            write_cloud(cloud, path)
            back = read_cloud(path)
            assert np.allclose(back.points, cloud.points, atol=1e-9)
        assert "ply" in (tmp_path / "c.ply").read_text().splitlines()[0]
        assert "ply" not in (tmp_path / "c.xyz").read_text().splitlines()[0]


class TestConfig:
    def test_roundtrip_defaults(self):
        cfg = cfgmod.RunConfig()
        assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg

    def test_roundtrip_modified(self):
        cfg = cfgmod.parse("seed = 7\nn_candidates = 40\ntau_normal = 0.3\n"
                           "input_path = 'in.xyz'\nthreads = 4\n")
        assert cfg.params.seed == 7
        assert cfg.params.sampling.n_candidates == 40
        assert cfg.params.consensus.tau_normal == 0.3
        assert cfg.input_path == "in.xyz"
        assert cfg.threads == 4
        assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as exc:
            cfgmod.parse("seed = 1\nn_candydates = 40\n")
        assert "line 2" in str(exc.value)
        assert "n_candydates" in str(exc.value)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError) as exc:
            cfgmod.parse("seed = lots\n")
        assert "line 1" in str(exc.value)

    def test_comments_ignored(self):
        cfg = cfgmod.parse("# full comment\nseed = 3  # trailing\n")
        assert cfg.params.seed == 3

    def test_quoted_value_keeps_hash(self):
        cfg = cfgmod.RunConfig(input_path="scans/run#2.xyz")
        assert cfgmod.parse(cfgmod.serialize(cfg)).input_path == "scans/run#2.xyz"
        cfg = cfgmod.parse("input_path = 'a # b.xyz'  # trailing\nseed = 3  # trailing\n")
        assert cfg.input_path == "a # b.xyz" and cfg.params.seed == 3

    @settings(max_examples=200, deadline=None)
    @given(*[st.text(st.one_of(st.sampled_from("#'\" \\=/."),
                               st.characters(blacklist_categories=("Cs",))), max_size=24)] * 2)
    def test_roundtrip_any_path(self, input_path, output_path):
        cfg = cfgmod.RunConfig(input_path=input_path, output_path=output_path)
        assert cfgmod.parse(cfgmod.serialize(cfg)) == cfg

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.parse("k_s = 2\n")    # fewer than 3 points cannot fix a plane
        with pytest.raises(ConfigError):
            cfgmod.parse("rejection_interval_max = 5\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_tol_deg_must_be_finite_and_nonnegative(self, value):
        # -1 used to run every point to max_iters ("solver convergence = 0.0%")
        with pytest.raises(ConfigError, match="tol_deg"):
            cfgmod.parse(f"tol_deg = {value}\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_tol_pos_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="tol_pos"):
            cfgmod.parse(f"tol_pos = {value}\n")

    @pytest.mark.parametrize("key, value", [("noise_k", 0), ("noise_k", -1),
                                            ("denoise_k", 3), ("denoise_k", -2)])
    def test_neighbourhood_sizes_below_their_minimum_rejected(self, key, value):
        # a noise profile needs one neighbour, a position candidate four
        with pytest.raises(ValueError, match=key):
            EstimationParams(**{key: value})
        with pytest.raises(ConfigError, match=key):
            cfgmod.parse(f"{key} = {value}\n")

    def test_zero_tolerances_stay_legal(self):
        consensus = cfgmod.parse("tol_deg = 0\ntol_pos = 0\n").params.consensus
        assert consensus.tol_deg == consensus.tol_pos == 0.0

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="threads"):
            cfgmod.parse("threads = 0\n")
        src = tmp_path / "in.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "60", "--out", str(src)])
        capsys.readouterr()
        assert cli_main(["estimate", "--in", str(src), "--out", str(tmp_path / "o.xyz"),
                         "--threads", "-2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "threads" in err[0], err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bench_threads_below_one_rejected(self, value, capsys):
        # 0 used to become 1, and -2 ran as one thread
        assert cli_main(["bench", "--points", "40", "--seeds", "1", "--counts", "20",
                         "--threads", value]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "threads" in err[0], err
        assert captured.out == ""

    def test_bench_without_threads_runs_on_one(self, capsys):
        assert cli_main(["bench", "--points", "40", "--seeds", "1", "--counts", "20"]) == 0
        assert capsys.readouterr().err == ""

    def test_every_leaf_settable_from_file(self, tmp_path):
        path = tmp_path / "leaf.cfg"
        for key, attr_path, default in config_leaves(cfgmod.RunConfig()):
            if isinstance(default, str):
                value = "leaf.xyz"
            elif isinstance(default, int):
                value = default + 1
            else:
                value = default + 0.01
            path.write_text(f"{key} = {value}\n")
            cfg = cfgmod.parse(path.read_text())
            assert lookup(cfg, attr_path) == value, key
            assert cfg != cfgmod.RunConfig(), key

    def test_keys_are_the_dataclass_leaves(self):
        keys = [key for key, _, _ in config_leaves(cfgmod.RunConfig())]
        assert len(set(keys)) == len(keys)
        assert set(cfgmod.SCHEMA) == set(keys)
        assert "rejection_interval_max" in cfgmod.SCHEMA
        assert "input_k" not in cfgmod.SCHEMA

    def test_every_param_flag_reaches_the_config(self):
        args = build_parser().parse_args([
            "estimate", "--in", "a.xyz", "--out", "b.xyz", "--seed", "5",
            "--candidates", "7", "--k-s", "5", "--denoise-k", "9", "--tau", "0.25",
            "--threads", "3"])
        cfg = _load_config(args)
        p = cfg.params
        assert (p.seed, p.sampling.n_candidates, p.sampling.k_s, p.denoise_k,
                p.consensus.tau_normal, cfg.threads) == (5, 7, 5, 9, 0.25, 3)


class TestCli:
    def test_synth_estimate_eval_plane(self, tmp_path, capsys):
        clean = tmp_path / "clean.xyz"
        est = tmp_path / "est.xyz"
        assert cli_main(["synth", "--shape", "plane", "--n", "400",
                         "--seed", "0", "--out", str(clean)]) == 0
        assert cli_main(["estimate", "--in", str(clean), "--out", str(est),
                         "--seed", "1"]) == 0
        assert cli_main(["eval", "--est", str(est), "--gt", str(clean),
                         "--surface", "plane"]) == 0
        out = capsys.readouterr().out
        rms_line = [ln for ln in out.splitlines() if ln.startswith("rms = ")][0]
        assert float(rms_line.split("=")[1]) < 0.1

    def test_repeat_runs_byte_identical(self, tmp_path):
        clean = tmp_path / "clean.xyz"
        cli_main(["synth", "--shape", "wedge", "--n", "200", "--noise", "0.5",
                  "--seed", "3", "--out", str(clean)])
        outs = []
        for name, threads in (("a.xyz", "1"), ("b.xyz", "4"), ("c.xyz", "1")):
            out = tmp_path / name
            assert cli_main(["estimate", "--in", str(clean), "--out", str(out),
                             "--seed", "5", "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_eval_count_mismatch_is_data_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "50", "--out", str(a)])
        cli_main(["synth", "--shape", "plane", "--n", "60", "--out", str(b)])
        assert cli_main(["eval", "--est", str(a), "--gt", str(b)]) == 2
        err = capsys.readouterr().err
        assert "50" in err and "60" in err

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli_main(["estimate", "--in", str(tmp_path / "nope.xyz"),
                         "--out", str(tmp_path / "o.xyz")]) == 2

    @staticmethod
    def assert_one_error_line(capsys, *words):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert all(w in err[0] for w in words), err

    @pytest.mark.parametrize("command, key, setting", [
        ("estimate", "noise_k", ["--config", "noise_k = -1"]),
        ("estimate", "noise_k", ["--config", "noise_k = -3"]),
        ("denoise", "denoise_k", ["--denoise-k", "2"])])
    def test_neighbourhood_sizes_below_their_minimum_are_data_errors(self, command, key, setting,
                                                                      tmp_path, capsys):
        # noise_k = -1 used to end in a ZeroDivisionError traceback, and
        # --denoise-k 2 was reported as a cloud with too few neighbours
        src = tmp_path / "in.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "60", "--out", str(src)])
        capsys.readouterr()
        flag, value = setting
        if flag == "--config":
            (tmp_path / "run.cfg").write_text(value + "\n")
            value = str(tmp_path / "run.cfg")
        assert cli_main([command, "--in", str(src), "--out", str(tmp_path / "o.xyz"),
                         flag, value]) == 2
        self.assert_one_error_line(capsys, key)

    @pytest.mark.parametrize("flag", ["--in", "--out"])
    def test_directory_path_is_data_error(self, flag, tmp_path, capsys):
        # a directory used to end in an IsADirectoryError traceback and exit 1
        src = tmp_path / "in.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "60", "--out", str(src)])
        capsys.readouterr()
        paths = {"--in": str(src), "--out": str(tmp_path / "o.xyz"), flag: str(tmp_path)}
        assert cli_main(["estimate", "--in", paths["--in"], "--out", paths["--out"]]) == 2
        self.assert_one_error_line(capsys, str(tmp_path))

    def test_synth_negative_noise_is_data_error(self, tmp_path, capsys):
        # it used to write the clean cloud and exit 0
        out = tmp_path / "q.xyz"
        assert cli_main(["synth", "--shape", "plane", "--n", "60", "--noise", "-1",
                         "--out", str(out)]) == 2
        self.assert_one_error_line(capsys, "noise")
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_bench_without_seeds_is_data_error(self, seeds, capsys):
        # used to print "mean_rms_deg nan" and exit 0
        assert cli_main(["bench", "--points", "40", "--seeds", seeds, "--counts", "20"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert captured.out == ""

    @pytest.mark.parametrize("empty", ["seeds"])
    def test_run_suite_rejects_an_empty_suite(self, empty):
        from normfit.bench import run_suite
        with pytest.raises(ValueError, match="at least one seed"):
            run_suite(points_per_cloud=40, candidate_counts=(20,), **{empty: ()})

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["estimate"]) == 1            # missing required flags
        assert cli_main(["synth", "--shape", "torus", "--out", "x"]) == 1
        capsys.readouterr()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nn_candidates = 30\n")
        cfg10 = tmp_path / "run10.cfg"
        cfg10.write_text("seed = 10\nn_candidates = 30\n")
        noisy = tmp_path / "noisy.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "100", "--noise", "1.0",
                  "--out", str(noisy)])
        outs = {}
        for name, extra in (("file", ["--config", str(cfg)]),
                            ("flag", ["--config", str(cfg), "--seed", "10"]),
                            ("file10", ["--config", str(cfg10)])):
            out = tmp_path / f"{name}.xyz"
            assert cli_main(["estimate", "--in", str(noisy), "--out", str(out)] + extra) == 0
            outs[name] = out.read_bytes()
        # the seed flag overrides the file; the file's other keys still apply
        assert outs["flag"] != outs["file"]
        assert outs["flag"] == outs["file10"]
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["estimate", "denoise"])
    def test_paths_from_config_file(self, command, tmp_path, capsys):
        src = tmp_path / "in put#1.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "100", "--out", str(src)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfgmod.serialize(cfgmod.RunConfig(input_path=str(src),
                                                         output_path=str(tmp_path / "cfg.xyz"))))
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert read_cloud(tmp_path / "cfg.xyz").points.shape == (100, 3)
        # a flag overrides the file's path
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "flag.xyz")]) == 0
        assert (tmp_path / "flag.xyz").read_bytes() == (tmp_path / "cfg.xyz").read_bytes()
        # no output path from either source is a usage error
        cfg.write_text(f"input_path = {str(src)!r}\n")
        assert cli_main([command, "--config", str(cfg)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sneed = 9\n")
        clean = tmp_path / "clean.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "100", "--out", str(clean)])
        assert cli_main(["estimate", "--in", str(clean),
                         "--out", str(tmp_path / "o.xyz"),
                         "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_denoise_runs(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.xyz"
        out = tmp_path / "den.xyz"
        cli_main(["synth", "--shape", "plane", "--n", "300", "--noise", "1.0",
                  "--seed", "2", "--out", str(noisy)])
        assert cli_main(["denoise", "--in", str(noisy), "--out", str(out)]) == 0
        cloud = read_cloud(out)
        noisy_cloud = read_cloud(noisy)
        assert np.abs(cloud.points[:, 2]).mean() < np.abs(noisy_cloud.points[:, 2]).mean()
        capsys.readouterr()

    def test_eval_csv_appends_with_header(self, tmp_path, capsys):
        clean = tmp_path / "clean.xyz"
        csv = tmp_path / "rows.csv"
        cli_main(["synth", "--shape", "sphere", "--n", "100", "--out", str(clean)])
        for _ in range(2):
            assert cli_main(["eval", "--est", str(clean), "--gt", str(clean),
                             "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("rms,")
        assert len(lines) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("surface", [None, "plane"])
    def test_eval_without_normals_reports_positions(self, surface, tmp_path, capsys):
        clean, noisy, den = (tmp_path / f"{name}.xyz" for name in ("clean", "noisy", "den"))
        cli_main(["synth", "--shape", "plane", "--n", "200", "--out", str(clean)])
        cli_main(["synth", "--shape", "plane", "--n", "200", "--noise", "1.0",
                  "--out", str(noisy)])
        assert cli_main(["denoise", "--in", str(noisy), "--out", str(den)]) == 0
        csv = tmp_path / "rows.csv"
        extra = [] if surface is None else ["--surface", surface]
        capsys.readouterr()
        for _ in range(2):
            assert cli_main(["eval", "--est", str(den), "--gt", str(clean),
                             "--csv", str(csv)] + extra) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("note: one of the clouds has no normals")
        assert out[1].startswith("# cd: ")
        names = [ln.split(" = ")[0] for ln in out if " = " in ln]
        assert names == (["cd", "p2s"] if surface else ["cd"]) * 2
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[:9] == [""] * 9 and cells[9] != ""
            assert (cells[10] != "") == (surface is not None)

    def test_bench_csv_matches_the_table(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        assert cli_main(["bench", "--points", "40", "--seeds", "1", "--counts", "20", "40",
                         "--csv", str(csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        table = out[out.index("candidates  mean_rms_deg") + 1:]
        lines = csv.read_text().splitlines()
        assert lines[0] == "n_candidates,mean_rms_deg" and len(table) == len(lines) - 1 == 2
        for printed, row in zip(table, lines[1:]):
            count, rms = row.split(",")
            assert printed.split()[0] == count
            assert float(printed.split()[1]) == pytest.approx(float(rms), abs=5.1e-5)
