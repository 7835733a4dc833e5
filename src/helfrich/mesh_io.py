"""OFF and OBJ mesh file reading and writing, and phase-label file reading.

Only positions and triangular faces are honored; every other record is
ignored on read. Every mesh file the package reads or writes, and every
phase-label file it reads, goes through here (JSON configs and reports
go through ``serialize``); the rest of the library works on in-memory
meshes and arrays. Input is read as bytes, never decoded as UTF-8. OFF
records and phase labels share one numeric parse (``_numbers``): one
float64 array per file, no Python object per number. Every input error
names its file.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import MeshError, PhaseCountMismatch
from .mesh import TriMesh

__all__ = ["read_mesh", "write_mesh", "read_off", "write_off", "read_obj", "write_obj"]


def _format(path):
    """The (reader, writer) pair of a mesh file's extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _FORMATS:
        raise MeshError(f"unsupported mesh format: {path}")
    return _FORMATS[ext]


def read_mesh(path):
    """Read a closed mesh, dispatching on the file extension (.off or .obj)."""
    return _format(path)[0](path)


def write_mesh(path, mesh):
    """Write a mesh, dispatching on the file extension (.off or .obj)."""
    return _format(path)[1](path, mesh)


def _mesh(path, vertices, faces):
    """The TriMesh of a file's arrays; a failed validation re-raises its class naming the path."""
    try:
        return TriMesh(vertices, faces)
    except MeshError as err:
        raise type(err)(f"{path}: {err}") from err


def _uncommented(path):
    """A file's bytes, undecoded, with each ``#`` comment cut to the end of its line (LF, CRLF or CR)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return re.sub(rb"#[^\r\n]*", b"", data) if b"#" in data else data


def _numbers(data):
    """The whitespace-separated numbers of ``data`` (bytes) as one float64 array, in one pass.

    A token that is not an ASCII decimal or exponent float, ``inf`` or
    ``nan`` raises ValueError; so do ``1_000`` and non-ASCII digits.
    """
    if data.isspace():  # numpy reads whitespace alone as [-1.0]
        return np.empty(0)
    return np.fromstring(data, sep=" ")


def read_off(path):
    """Read an OFF file (header OFF, then counts, vertices, faces; ``#`` starts a comment).

    The file is read as bytes, so a comment may hold any byte, and every
    number after the counts is parsed in one pass (``_numbers``). Malformed,
    non-triangle or truncated input raises MeshError naming the path, and
    so does any other header: COFF and NOFF files carry colours or normals
    after each vertex, which this reader does not parse. A file with no
    faces raises MeshError naming the path. A mesh that TriMesh rejects (a
    face index below 0, past the last vertex or not an integer names the
    first such face, 0-based) raises TriMesh's error with the path before it.
    """
    parts = _uncommented(path).split(maxsplit=4)  # header, the three counts, then every record
    header = parts[0] if parts else b""
    if header.upper() != b"OFF":
        shown = header.decode(errors="backslashreplace")
        raise MeshError(f"{path}: header {shown!r} is not OFF; only plain OFF files are read")
    try:
        nv, nf = int(parts[1]), int(parts[2])  # then the edge count
        if nv < 0 or nf < 0:
            raise MeshError(f"{path}: negative vertex or face count")
        numbers = _numbers(parts.pop() if len(parts) == 5 else b"")  # the records' text is freed here
        start, end = 3 * nv, 3 * nv + 4 * nf
        if len(numbers) < start:
            raise MeshError(f"{path}: truncated vertex section: {nv} vertices declared")
        # while every face before it is a triangle, face i's count is number 4 i
        counts = numbers[start:end:4]
        if (counts != 3).any():
            raise MeshError(f"{path}: non-triangle face with {counts[np.argmax(counts != 3)]:g} vertices")
        if len(numbers) < end:
            raise MeshError(f"{path}: truncated face section: {nf} faces declared")
    except (ValueError, IndexError) as err:
        raise MeshError(f"{path}: malformed OFF counts or numbers") from err
    if nf == 0:
        raise MeshError(f"{path}: no faces declared")
    # float face values go to TriMesh as they are: it rejects any that is not an index
    return _mesh(path, numbers[:start].reshape(nv, 3), numbers[start:end].reshape(nf, 4)[:, 1:])


def _read_labels(path):
    """The phase labels of a file as one float64 array: numbers separated by any
    whitespace, ``#`` comments, read as ``read_off`` reads its records.

    Text that is not a number raises PhaseCountMismatch naming the path;
    PhaseField checks the values.
    """
    try:
        return _numbers(_uncommented(path))
    except ValueError as err:
        raise PhaseCountMismatch(f"{path}: malformed phase labels") from err


def write_off(path, mesh):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


def read_obj(path):
    """Read a Wavefront OBJ file (v and f records only, 1-based indices).

    Keywords and numbers are ASCII; each other byte is read as itself, with
    no UTF-8 decoding, so comments and names may hold any byte. A vertex
    record with fewer than three coordinates, a non-triangle face, a face
    index 0, a relative (negative) index before the first vertex or a
    number that does not parse (a non-ASCII byte inside it included)
    raises MeshError naming the path and line, and so does a face index
    past the last vertex of the file, checked once every vertex is read (a
    face may name a vertex that comes after it); an index of 2**63 or more
    is past any vertex count and is named as it is read. A mesh that
    TriMesh rejects raises TriMesh's error with the path before it.
    """
    verts = []
    faces = []
    face_lines = []
    # a byte past ASCII becomes a lone surrogate: never whitespace, never a digit
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if parts[0] == "v":
                    if len(parts) < 4:
                        raise MeshError(f"{path}: line {number}: vertex record with fewer than 3 coordinates")
                    verts.append([float(p) for p in parts[1:4]])
                elif parts[0] == "f":
                    if len(parts) != 4:
                        raise MeshError(f"{path}: line {number}: non-triangle face record")
                    idx = [int(p.split("/", 1)[0]) for p in parts[1:4]]
                    if 0 in idx:
                        raise MeshError(f"{path}: line {number}: face index 0; OBJ indices are 1-based")
                    if min(idx) < -len(verts):
                        raise MeshError(f"{path}: line {number}: face index {min(idx)} is before the first vertex")
                    if max(idx) >= 2**63:
                        raise MeshError(f"{path}: line {number}: face index {max(idx)} is past the last vertex")
                    faces.append([i - 1 if i > 0 else len(verts) + i for i in idx])
                    face_lines.append(number)
            except ValueError as err:
                raise MeshError(f"{path}: line {number}: {err}") from err
    if not verts or not faces:
        raise MeshError(f"{path}: no geometry found")
    faces = np.array(faces, dtype=np.int64)
    past = faces >= len(verts)
    if past.any():
        k = int(np.argmax(past.any(axis=1)))
        raise MeshError(
            f"{path}: line {face_lines[k]}: face index {faces[k][past[k]][0] + 1} "
            f"is past the last vertex ({len(verts)} vertices)"
        )
    return _mesh(path, np.array(verts), faces)


def write_obj(path, mesh):
    with open(path, "w") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


_FORMATS = {".off": (read_off, write_off), ".obj": (read_obj, write_obj)}
