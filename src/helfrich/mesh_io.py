"""OFF and OBJ mesh file reading and writing.

Only positions and triangular faces are honored; every other record is
ignored on read. All file I/O of the package lives here; the rest of the
library works on in-memory meshes.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import MeshError
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


def read_off(path):
    """Read an OFF file (header OFF, then counts, vertices, faces; ``#`` starts a comment).

    Malformed, non-triangle or truncated input raises MeshError naming the
    path, and so does any other header: COFF and NOFF files carry colours
    or normals after each vertex, which this reader does not parse.
    """
    with open(path) as fh:
        tokens = re.sub(r"#[^\n]*", "", fh.read()).split()
    header = tokens[0] if tokens else ""
    if header.upper() != "OFF":
        raise MeshError(f"{path}: header {header!r} is not OFF; only plain OFF files are read")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])  # then the edge count
        if nv < 0 or nf < 0:
            raise MeshError(f"{path}: negative vertex or face count")
        start, end = 4 + 3 * nv, 4 + 3 * nv + 4 * nf
        if len(tokens) < start:
            raise MeshError(f"{path}: truncated vertex section: {nv} vertices declared")
        verts = np.array(tokens[4:start], dtype=np.float64).reshape(nv, 3)
        # while every face before it is a triangle, face i's count is token 4 i
        counts = np.array(tokens[start:end:4], dtype=np.int64)
        if (counts != 3).any():
            raise MeshError(f"{path}: non-triangle face with {counts[np.argmax(counts != 3)]} vertices")
        if len(tokens) < end:
            raise MeshError(f"{path}: truncated face section: {nf} faces declared")
        faces = np.array(tokens[start:end], dtype=np.int64).reshape(nf, 4)[:, 1:]
    except (ValueError, IndexError) as err:
        raise MeshError(f"{path}: malformed OFF counts or numbers") from err
    return TriMesh(verts, faces)


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

    A vertex record with fewer than three coordinates, a non-triangle face
    or a number that does not parse raises MeshError naming the path.
    """
    verts = []
    faces = []
    with open(path) as fh:
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
                    faces.append([i - 1 if i > 0 else len(verts) + i for i in idx])
            except ValueError as err:
                raise MeshError(f"{path}: line {number}: {err}") from err
    if not verts or not faces:
        raise MeshError(f"{path}: no geometry found")
    return TriMesh(np.array(verts), np.array(faces, dtype=np.int64))


def write_obj(path, mesh):
    with open(path, "w") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


_FORMATS = {".off": (read_off, write_off), ".obj": (read_obj, write_obj)}
