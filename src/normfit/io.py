"""Reading and writing point clouds as whitespace XYZ or ASCII PLY.

XYZ lines carry "x y z" or "x y z nx ny nz"; '#' starts a comment.  PLY is
the standard ASCII variant with float x y z and optional nx ny nz; binary
PLY is rejected.  All numeric output uses 17 significant digits so
round-trips are lossless at double precision.  numpy's C reader parses a body,
and a scan a line at a time answers for what it refuses; a malformed line or
a non-finite value raises ParseError naming the line.
"""

from __future__ import annotations

import math
import os
from array import array
from itertools import islice

import numpy as np

from .errors import NormalNotUnit, ParseError
from .geometry import PointCloud, angles_unoriented, as_points

_FMT = "%.17g"
# rows formatted per write; bounds the text held for one write
_WRITE_ROWS = 4096


def _scan(fh, path, line, cols, fields, count):
    """`_read_rows` a line at a time, with O(1) state besides the values.  Too few PLY vertices
    outrank the first malformed line, then mixed normals, an empty body and a non-finite value."""
    vals, widths, seen = array("d"), set(), 0    # kept values; XYZ value counts; rows
    error = nonfinite = None         # the first malformed line's error; the first non-finite line
    for num, text in enumerate(fh, line + 1):
        if seen == count or error and not cols:
            break
        tokens = (text if cols else text.split("#", 1)[0]).split()
        n, seen = len(tokens), seen + bool(tokens)
        if error or not n:           # after an error a PLY read only counts its vertices
            continue
        if n < fields or not cols and (n not in (3, 6) or n < max(widths, default=n)):
            why = ("line without normal after lines with normals" if n == 3
                   else f"expected 3 or 6 values, got {n}")
            error = ParseError("vertex line too short" if cols else why, line=num)
            continue
        widths.add(n)
        for tok in [tokens[c] for c in cols] if cols else tokens:
            try:
                vals.append(float(tok))
            except ValueError:
                error = ParseError(f"non-numeric value {tok!r}", line=num)
                break
            nonfinite = nonfinite or (not math.isfinite(vals[-1]) and num)
    if seen < (count or 0):
        raise ParseError(f"{path}: header declares {count} vertices, found {seen}")
    if error is not None:
        raise error
    if not cols and len(widths) == 2:
        raise ParseError(f"{path}: some lines have normals and some do not")
    if not seen:
        raise ParseError(f"{path}: no points found")
    if nonfinite:
        raise ParseError("value is not finite", line=nonfinite)
    return np.frombuffer(vals).reshape(seen, -1)


def _read_rows(fh, path, line, cols=None, fields=0, count=None):
    """Points and unit normals (or None) of the non-blank lines of text-mode `fh`, whose next
    line is 0-based `line`.  XYZ (`cols` None): '#' starts a comment; lines hold 3 or 6 values.
    PLY: the first `count` lines are vertices of at least `fields` values, those at `cols` kept.
    np.loadtxt parses them; `_scan` answers when it raises or returns what this refuses."""
    start = fh.tell()
    try:                             # its warnings raise only where the caller's filters say so
        vals = np.loadtxt(islice(filter(str.strip, fh), count) if cols else fh, ndmin=2,
                          comments=None if cols else "#", usecols=range(fields) if cols else None)
        if cols:                     # the kept fields, as a view when they lead each line
            vals = vals[:, :len(cols)] if cols == [*range(len(cols))] else vals[:, cols]
        if len(vals) < (count or 1) or vals.shape[1] not in (3, 6) or not np.isfinite(vals).all():
            raise ValueError("values the line scan answers for")
    except (ValueError, Warning):
        fh.seek(start)
        vals = _scan(fh, path, line, cols, fields, count)
    if vals.shape[1] == 3:
        return np.ascontiguousarray(vals), None
    lens = np.linalg.norm(vals[:, 3:], axis=1)
    if np.any(np.abs(lens - 1.0) > 1e-3):
        bad = int(np.argmax(np.abs(lens - 1.0)))
        raise NormalNotUnit(f"{path}: normal {bad} has norm {lens[bad]:.6g}")
    vals[:, 3:] /= lens[:, None]     # in place, so only the returned copies sit beside vals
    del lens
    return vals[:, :3].copy(), vals[:, 3:].copy()


def read_xyz(path) -> PointCloud:
    # text mode turns \r\n and \r into \n, and only \n ends a line, as when
    # the file is iterated (str.splitlines would also split on \v, \f, ...)
    with open(path) as fh:
        return PointCloud(*_read_rows(fh, path, 0))


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
    """Write ASCII PLY; when reference normals are given, one row per point,
    vertices are colored by normal-angle error (blue = 0, red = 90 degrees)."""
    columns = [cloud.points]
    if cloud.normals is not None:
        columns.append(cloud.normals)
    fmts = [_FMT] * 3 * len(columns)
    if reference_normals is not None:
        if cloud.normals is None:
            raise ValueError("cloud has no normals to compare against the reference")
        reference_normals = as_points(reference_normals)
        if len(reference_normals) != len(cloud):
            raise ValueError(f"need one reference normal per point: {len(cloud)} points, "
                             f"{len(reference_normals)} reference normals")
        columns.append(_error_colors(cloud.normals, reference_normals))
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
        return PointCloud(*_read_rows(fh, path, body_start, cols, len(props), max(n_vertex, 0)))


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
