"""Reading and writing point clouds as whitespace XYZ or ASCII PLY.

XYZ lines carry "x y z" or "x y z nx ny nz"; '#' starts a comment.  PLY is
the standard ASCII variant with float x y z and optional nx ny nz; binary
PLY is rejected.  All numeric output uses 17 significant digits so
round-trips are lossless at double precision.  Values are parsed and formatted
as arrays a piece of whole lines at a time: a read holds two copies of the cloud
and under 1 MB of text, a write the cloud and about 2 MB.  A malformed line or a
non-finite value raises ParseError naming the line.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import NormalNotUnit, ParseError
from .geometry import _BLOCK_ELEMENTS, PointCloud, angles_unoriented

_FMT = "%.17g"
# rows formatted per write; bounds the text held for one write
_WRITE_ROWS = 4096
# characters read per piece; as Python strings its lines and tokens take about 10 times that
_READ_CHARS = _BLOCK_ELEMENTS // 4


def _floats(tokens, rows, width):
    """`tokens` as one float64 array; line rows[i] (0-based) holds the next
    `width` (or width[i]) of them.  A token that is not a number raises
    ParseError naming its line."""
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        for tok, row in zip(tokens, np.repeat(rows, width)):
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"non-numeric value {tok!r}", line=int(row) + 1) from None
        raise


def _read_rows(fh, path, line, cols=None, fields=0, count=None) -> PointCloud:
    """Cloud from the non-blank lines of text file `fh`, whose next line is 0-based `line`.
    XYZ (`cols` None): '#' starts a comment; lines hold 3 values, or 6 with a normal.  PLY:
    the first `count` lines are vertices of at least `fields` values, those at `cols` kept,
    and too few of them outranks every other error.  Otherwise the first malformed line
    raises ParseError, then the first non-finite value, then the worst normal NormalNotUnit."""
    parts, kinds, seen = [], set(), 0    # each piece's values; XYZ value counts; lines seen
    error = nonfinite = None             # the first parse error; line of a non-finite value
    more = True                          # on to the file's end, the last PLY vertex or an XYZ error
    while more and seen != count and (error is None or count is not None):
        text = fh.read(_READ_CHARS)
        more = len(text) == _READ_CHARS  # a text file reads short only at its end
        text += fh.readline() if more else ""           # end the piece at a line end
        if cols is None:
            text = re.sub("#[^\n]*", "", text)
        lines = text.split("\n")
        width = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
        rows = np.flatnonzero(width)[:None if count is None else count - seen]
        seen, width = seen + len(rows), width[rows]
        if error is None and len(rows):
            tokens = text.split()
            if cols is None:     # stop at a bad value count, or no normal after a line with one
                normal = width == 6
                wrong = np.flatnonzero(~normal & (width != 3) | (width == 3) & (
                    (6 in kinds) | np.logical_or.accumulate(normal)))
                stop = int(wrong[0]) if len(wrong) else len(rows)
                tokens = tokens[:width[:stop].sum()]
                kinds.update(width[[0, stop - 1]].tolist())     # kept lines: 3 values, then 6
            else:
                short = np.flatnonzero(width < fields)
                stop = int(short[0]) if len(short) else len(rows)
                starts = np.cumsum(width[:stop]) - width[:stop]
                tokens = list(map(tokens.__getitem__, (starts[:, None] + cols).ravel().tolist()))
            try:
                vals = _floats(tokens, rows[:stop] + line, len(cols) if cols else width[:stop])
            except ParseError as exc:
                error = exc
            else:
                if stop < len(rows):
                    why = (f"expected 3 or 6 values, got {width[stop]}" if width[stop] != 3
                           else "line without normal after lines with normals")
                    error = ParseError("vertex line too short" if cols else why,
                                       line=line + int(rows[stop]) + 1)
                if stop and len(kinds) < 2:
                    parts.append(vals.reshape(stop, -1))
                    if nonfinite is None and not np.isfinite(vals).all():
                        finite = np.isfinite(parts[-1]).all(axis=1)
                        nonfinite = line + int(rows[np.argmin(finite)]) + 1
        line += len(lines) - 1           # all but a last piece end in "\n"
    if seen < (count or 0):
        raise ParseError(f"{path}: header declares {count} vertices, found {seen}")
    if error is not None:
        raise error
    if len(kinds) == 2:
        raise ParseError(f"{path}: some lines have normals and some do not")
    if not parts:
        raise ParseError(f"{path}: no points found")
    if nonfinite is not None:
        raise ParseError("value is not finite", line=nonfinite)
    vals, nrm = np.concatenate(parts), None
    del parts                            # one copy of the values at a time from here
    if vals.shape[1] == 6:
        nrm = vals[:, 3:]
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > 1e-3):
            bad = int(np.argmax(np.abs(lens - 1.0)))
            raise NormalNotUnit(f"{path}: normal {bad} has norm {lens[bad]:.6g}")
        nrm = nrm / lens[:, None]
    return PointCloud(points=np.ascontiguousarray(vals[:, :3]), normals=nrm)


def read_xyz(path) -> PointCloud:
    # text mode turns \r\n and \r into \n, and only \n ends a line, as when
    # the file is iterated (str.splitlines would also split on \v, \f, ...)
    with open(path) as fh:
        return _read_rows(fh, path, 0)


def _write_rows(fh, columns, fmts):
    """Write the rows of the side-by-side (N, c_i) `columns` as text, each
    column through its % format in `fmts`, one space between fields."""
    line = " ".join(fmts) + "\n"
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        block = np.hstack([c[start:start + _WRITE_ROWS] for c in columns])
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_xyz(cloud: PointCloud, path) -> None:
    columns = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
    with open(path, "w") as fh:
        _write_rows(fh, columns, [_FMT] * 3 * len(columns))


def _error_colors(normals, reference_normals):
    """(N, 3) RGB red-blue ramp on the unoriented angle error: 0 deg = blue, 90 = red."""
    err = angles_unoriented(normals, reference_normals)
    frac = np.clip(err / 90.0, 0.0, 1.0)
    return np.stack([np.rint(255 * frac), np.zeros(len(err)), np.rint(255 * (1.0 - frac))],
                    axis=1)


def write_ply(cloud: PointCloud, path, reference_normals=None) -> None:
    """Write ASCII PLY; when reference normals are given, vertices are
    colored by normal-angle error (blue = 0, red = 90 degrees)."""
    columns = [cloud.points]
    if cloud.normals is not None:
        columns.append(cloud.normals)
    fmts = [_FMT] * 3 * len(columns)
    if reference_normals is not None:
        if cloud.normals is None:
            raise ValueError("cloud has no normals to compare against the reference")
        columns.append(_error_colors(cloud.normals,
                                     np.asarray(reference_normals, dtype=np.float64)))
        fmts += ["%d"] * 3
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if cloud.normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        if reference_normals is not None:
            fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        _write_rows(fh, columns, fmts)


def read_ply(path) -> PointCloud:
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise ParseError(f"{path}: missing 'ply' magic", line=1)
        n_vertex = None
        props = []
        body_start = None
        in_vertex_element = False
        for i, line in enumerate(iter(fh.readline, ""), start=2):
            tok = line.split()
            if not tok:
                continue
            try:
                if tok[0] == "format":
                    if tok[1] != "ascii":
                        raise ParseError(f"unsupported PLY format {tok[1]!r} (ASCII only)", line=i)
                elif tok[0] == "element":
                    in_vertex_element = tok[1] == "vertex"
                    if in_vertex_element:
                        n_vertex = int(tok[2])
                elif tok[0] == "property" and in_vertex_element:
                    props.append(tok[2])
                elif tok[0] == "end_header":
                    body_start = i
                    break
            except (IndexError, ValueError):
                raise ParseError(f"malformed header line {line.strip()!r}", line=i) from None
        if n_vertex is None or body_start is None:
            raise ParseError(f"{path}: incomplete PLY header")
        for name in ("x", "y", "z"):
            if name not in props:
                raise ParseError(f"{path}: vertex property {name!r} missing")
        names = ("x", "y", "z", "nx", "ny", "nz") if {"nx", "ny", "nz"} <= set(props) else ("x", "y", "z")
        cols = [props.index(name) for name in names]
        return _read_rows(fh, path, body_start, cols, len(props), max(n_vertex, 0))


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply goes to the PLY reader, anything else XYZ."""
    if os.path.splitext(str(path))[1].lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)


def write_cloud(cloud: PointCloud, path, reference_normals=None) -> None:
    if os.path.splitext(str(path))[1].lower() == ".ply":
        write_ply(cloud, path, reference_normals=reference_normals)
    else:
        write_xyz(cloud, path)
