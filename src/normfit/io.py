"""Reading and writing point clouds as whitespace XYZ or ASCII PLY.

XYZ lines carry "x y z" or "x y z nx ny nz"; '#' starts a comment.  PLY is
the standard ASCII variant with float x y z and optional nx ny nz; binary
PLY is rejected.  All numeric output uses 17 significant digits so
round-trips are lossless at double precision.  A file's values are parsed
and formatted as whole arrays, not line by line; a malformed line or a
non-finite value raises ParseError naming the line.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import NormalNotUnit, ParseError
from .geometry import PointCloud, angles_unoriented

_FMT = "%.17g"
# rows formatted per write; bounds the text held for one write
_WRITE_ROWS = 4096


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


def _finish_cloud(vals, rows, path):
    """Cloud from the (N, 3) or (N, 6) values read from lines `rows` (0-based)."""
    if not len(vals):
        raise ParseError(f"{path}: no points found")
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ParseError("value is not finite", line=int(rows[np.argmin(finite)]) + 1)
    nrm = None
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
        text = re.sub("#[^\n]*", "", fh.read())
    lines = text.split("\n")
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    rows = np.flatnonzero(counts)
    width = counts[rows]
    # the first line with a bad value count, or without normals after one with them
    normal = width == 6
    bad = ~normal & (width != 3)
    mixed = (width == 3) & np.logical_or.accumulate(normal)
    wrong = np.flatnonzero(bad | mixed)
    stop = int(wrong[0]) if len(wrong) else len(rows)
    vals = _floats(text.split()[:int(width[:stop].sum())], rows[:stop], width[:stop])
    if stop < len(rows):
        if bad[stop]:
            raise ParseError(f"expected 3 or 6 values, got {width[stop]}", line=int(rows[stop]) + 1)
        raise ParseError("line without normal after lines with normals", line=int(rows[stop]) + 1)
    if normal.any() and not normal.all():
        raise ParseError(f"{path}: some lines have normals and some do not")
    return _finish_cloud(vals.reshape(len(rows), 6 if normal.any() else 3), rows, path)


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
        lines = fh.read().split("\n")
    if lines[0].strip() != "ply":
        raise ParseError(f"{path}: missing 'ply' magic", line=1)
    n_vertex = None
    props = []
    body_start = None
    in_vertex_element = False
    for i, line in enumerate(lines[1:], start=2):
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
    rows = [r for r in range(body_start, len(lines)) if lines[r].strip()]
    if len(rows) < n_vertex:
        raise ParseError(f"{path}: header declares {n_vertex} vertices, found {len(rows)}")
    rows = np.array(rows[:max(n_vertex, 0)], dtype=np.intp)
    fields = [lines[r].split() for r in rows]
    short = [j for j, f in enumerate(fields) if len(f) < len(props)]
    end = short[0] if short else len(rows)
    vals = _floats([f[c] for f in fields[:end] for c in cols], rows[:end], len(cols))
    if short:
        raise ParseError("vertex line too short", line=int(rows[end]) + 1)
    return _finish_cloud(vals.reshape(end, len(cols)), rows, path)


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
