"""Closed oriented triangle meshes with half-edge connectivity.

The mesh is the discrete carrier of a closed oriented surface: faces are
counterclockwise when seen from outside, every edge is shared by exactly
two faces with opposite traversal, and validation fails rather than
repairs. Validation is numpy array code with no loop over vertices or
faces: edge sorts plus a few passes per bit of the largest valence.
Vertices are immutable after construction; moving vertices means
building a new mesh (see :meth:`TriMesh.with_vertices`, which reuses the
connectivity).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateFace,
    IndexOutOfRange,
    InconsistentOrientation,
    NonManifold,
)

__all__ = ["TriMesh", "build_mesh", "enclosed_volume", "diameter"]

# Face area below AREA_EPS_FACTOR * bbox_diag^2 counts as degenerate.
AREA_EPS_FACTOR = 1e-12

# Attributes that depend on the faces only; with_vertices shares them.
_CONNECTIVITY = (
    "faces", "allow_boundary", "half_edge_origin", "half_edge_dest", "half_edge_twin",
    "half_edge_face", "half_edge_next", "edges", "edge_faces", "_edge_of_halfedge",
    "boundary_vertices", "_n_components", "_component_labels", "_nbr_csr",
)


def _scatter(index, values, n):
    """Sum ``values[c][r]`` into bin ``index[r, c]`` of ``n`` bins.

    ``index`` is (R, C) and ``values`` holds C arrays of shape (R,) or
    (R, ...); the result has shape ``(n,)`` plus that trailing shape. Each
    column is summed by ``np.bincount``, rows in input order, and the
    columns are added in turn, so the result is bitwise reproducible.
    """
    tail = np.shape(values[0])[1:]
    width = int(np.prod(tail))
    out = np.zeros((n, width))
    for c, vals in enumerate(values):
        flat = np.reshape(vals, (len(index), width))
        for k in range(width):
            out[:, k] += np.bincount(index[:, c], weights=flat[:, k], minlength=n)
    return out.reshape((n,) + tail)


def _cross(a, b):
    """Row-wise cross product of two (n, 3) arrays, bitwise equal to ``np.cross``.

    The three components ``a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0`` go
    straight into a preallocated array, without the axis moves and copies
    ``np.cross`` makes.
    """
    out = np.empty((len(a), 3))
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[:, i], b[:, j], out=out[:, c])
        out[:, c] -= a[:, j] * b[:, i]
    return out


class TriMesh:
    """Validated triangle mesh with half-edge adjacency.

    Parameters
    ----------
    vertices : (V, 3) array_like
        Vertex positions.
    faces : (F, 3) array_like
        Vertex index triples, counterclockwise seen from outside.
    allow_boundary : bool
        Accept boundary edges (exactly one incident face). Off by default;
        open patches are only meant for tests.

    Raises
    ------
    NonManifold, InconsistentOrientation, DegenerateFace, IndexOutOfRange
    """

    def __init__(self, vertices, faces, allow_boundary=False):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        f = np.ascontiguousarray(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise IndexOutOfRange(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise IndexOutOfRange(f"faces must be (F, 3), got {f.shape}")
        if not np.isfinite(v).all():
            raise DegenerateFace("non-finite vertex coordinates")
        self.vertices = v
        self.faces = f
        self.allow_boundary = bool(allow_boundary)
        self._validate_indices()
        self._build_half_edges()
        self._validate_vertex_links()
        self._validate_face_areas()
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    # -- construction -----------------------------------------------------

    def _validate_indices(self):
        v, f = self.vertices, self.faces
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise IndexOutOfRange("face index out of range")
        if len(f) == 0:
            raise IndexOutOfRange("mesh has no faces")
        referenced = np.zeros(len(v), dtype=bool)
        referenced[f.ravel()] = True
        if not referenced.all():
            missing = np.flatnonzero(~referenced)[:8]
            raise IndexOutOfRange(f"unreferenced vertices: {missing.tolist()}")
        if (f[:, 0] == f[:, 1]).any() or (f[:, 1] == f[:, 2]).any() or (f[:, 2] == f[:, 0]).any():
            raise DegenerateFace("face with repeated vertex")
        key = np.sort(f, axis=1)
        key = key[np.lexsort(key.T)]
        if (key[1:] == key[:-1]).all(axis=1).any():
            raise NonManifold("duplicated face (same vertex triple)")

    def _build_half_edges(self):
        """Half-edge h = 3*face + corner; origin faces[f, c], dest faces[f, (c+1)%3]."""
        f = self.faces
        nf = len(f)
        nh = 3 * nf
        origin = f[:, [0, 1, 2]].ravel()
        dest = f[:, [1, 2, 0]].ravel()
        # directed edge must be unique, undirected edge must appear 1 or 2 times
        lo = np.minimum(origin, dest)
        hi = np.maximum(origin, dest)
        und = lo.astype(np.int64) * len(self.vertices) + hi
        order = np.argsort(und, kind="stable")
        und_s = und[order]
        grp = np.flatnonzero(np.diff(und_s) != 0)
        starts = np.concatenate([[0], grp + 1])
        ends = np.concatenate([grp + 1, [len(und_s)]])
        sizes = ends - starts
        if (sizes > 2).any():
            raise NonManifold("edge with more than two incident faces")
        twin = np.full(nh, -1, dtype=np.int64)
        pair = starts[sizes == 2]
        h1 = order[pair]
        h2 = order[pair + 1]
        if (origin[h1] == origin[h2]).any():
            raise InconsistentOrientation("shared edge traversed twice in the same direction")
        twin[h1] = h2
        twin[h2] = h1
        if not self.allow_boundary and (twin < 0).any():
            raise NonManifold("boundary edge in closed mesh")
        self.half_edge_origin = origin
        self.half_edge_dest = dest
        self.half_edge_twin = twin
        self.half_edge_face = np.repeat(np.arange(nf, dtype=np.int64), 3)
        nxt = np.arange(nh, dtype=np.int64).reshape(nf, 3)[:, [1, 2, 0]].ravel()
        self.half_edge_next = nxt
        # unique undirected edges, and the faces on each side
        rep = order[starts]
        self.edges = np.column_stack([lo[rep], hi[rep]])
        ef = np.full((len(rep), 2), -1, dtype=np.int64)
        ef[:, 0] = self.half_edge_face[rep]
        second = np.full(len(rep), -1, dtype=np.int64)
        second[sizes == 2] = order[starts[sizes == 2] + 1]
        ef[sizes == 2, 1] = self.half_edge_face[second[sizes == 2]]
        self.edge_faces = ef
        self._edge_of_halfedge = np.empty(nh, dtype=np.int64)
        eid = np.repeat(np.arange(len(rep), dtype=np.int64), sizes)
        self._edge_of_halfedge[order] = eid

    def _validate_vertex_links(self):
        """Each vertex star must be a single half-edge fan (no pinch points).

        The fans of a vertex are the components of h -> twin[next[next[h]]]
        on its outgoing half-edges: a cycle for a closed star, a path for an
        open one. Each component is labelled with its smallest half-edge by
        min-propagation along the map and its inverse with pointer doubling
        (Wyllie 1979), one round per bit of the largest valence.
        """
        origin, twin, nxt = self.half_edge_origin, self.half_edge_twin, self.half_edge_next
        nh, nv = len(origin), len(self.vertices)
        # index nh is a sink that stands for "off the boundary"; its label nh
        # exceeds every half-edge's
        label = np.arange(nh + 1)
        rotated = twin[nxt[nxt]]
        forward = np.append(np.where(rotated < 0, nh, rotated), nh)
        backward = np.append(np.where(twin < 0, nh, nxt[twin]), nh)
        rounds = int(np.bincount(origin).max() - 1).bit_length()
        for ptr in (forward, backward):
            for _ in range(rounds):
                label = np.minimum(label, label[ptr])
                ptr = ptr[ptr]
        fans = np.bincount(origin[label[:nh] == np.arange(nh)], minlength=nv)
        pinched = np.flatnonzero(fans > 1)
        if len(pinched):
            raise NonManifold(f"pinched vertex {pinched[0]}: star is not a single fan")
        self.boundary_vertices = np.unique(origin[twin < 0])

    def _validate_face_areas(self):
        eps = AREA_EPS_FACTOR * self.bbox_diagonal**2
        if (self.face_areas() <= eps).any():
            bad = int(np.argmin(self.face_areas()))
            raise DegenerateFace(f"face {bad} has area <= {eps:g}")

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def is_closed(self):
        return len(self.boundary_vertices) == 0

    @property
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def n_components(self):
        self._compute_components()
        return self._n_components

    @property
    def genus(self):
        """Total genus of a closed mesh, summed over connected components."""
        return self.n_components - self.euler_characteristic // 2

    @property
    def bbox_diagonal(self):
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    def _compute_components(self):
        if hasattr(self, "_n_components"):
            return
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        e = self.edges
        data = np.ones(len(e), dtype=np.int8)
        adj = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(self.n_vertices,) * 2)
        self._n_components, self._component_labels = connected_components(adj, directed=False)

    def face_corner_positions(self):
        """Positions of the three corners of every face: three (F, 3) arrays."""
        v, f = self.vertices, self.faces
        return tuple(np.take(v, f[:, c], axis=0) for c in range(3))

    def face_area_vectors(self):
        xi, xj, xk = self.face_corner_positions()
        return 0.5 * _cross(xj - xi, xk - xi)

    def face_areas(self):
        return np.linalg.norm(self.face_area_vectors(), axis=1)

    def face_normals(self):
        n = self.face_area_vectors()
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def total_area(self):
        from .curvature import geometry

        return float(geometry(self).area.sum())

    @property
    def mean_edge_length(self):
        """Mean length over :attr:`edges`, from the stored geometry record."""
        from .curvature import geometry

        return geometry(self).mean_edge

    def vertex_neighbors(self):
        """One-ring neighbor lists in CSR form: (offsets, neighbor indices)."""
        if not hasattr(self, "_nbr_csr"):
            order = np.argsort(self.half_edge_origin, kind="stable")
            counts = np.bincount(self.half_edge_origin, minlength=self.n_vertices)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            self._nbr_csr = (offsets, self.half_edge_dest[order])
        return self._nbr_csr

    def with_vertices(self, vertices):
        """New mesh with the same connectivity and new positions.

        Skips the combinatorial validation and the face-area check; the
        shape and finiteness checks still run. Callers that need the
        face-area check run ``_validate_face_areas`` (as ``shapes.jittered``
        does) or read ``area`` from the geometry record (as the optimizer's
        line search does). Only the connectivity attributes carry over, so
        nothing computed from the old positions reaches the new mesh.
        """
        new = object.__new__(TriMesh)
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        if v.shape != self.vertices.shape:
            raise IndexOutOfRange("vertex array shape changed")
        if not np.isfinite(v).all():
            raise DegenerateFace("non-finite vertex coordinates")
        for name in _CONNECTIVITY:
            if name in self.__dict__:
                new.__dict__[name] = self.__dict__[name]
        new.vertices = v
        new.vertices.setflags(write=False)
        return new

    def flipped(self):
        """Mesh with all face windings (and hence normals) reversed."""
        return TriMesh(self.vertices, self.faces[:, ::-1], allow_boundary=self.allow_boundary)

    def angle_defects(self):
        """2*pi minus the incident corner angles, per vertex (open meshes: pi on the rim).

        The array is the mesh's stored geometry record's, and read-only.
        """
        from .curvature import geometry

        return geometry(self).defect


def build_mesh(vertices, faces, allow_boundary=False):
    """Validate raw vertex/face arrays into a :class:`TriMesh`."""
    return TriMesh(vertices, faces, allow_boundary=allow_boundary)


def enclosed_volume(mesh):
    """Signed volume enclosed by a closed oriented mesh.

    Divergence-theorem sum (1/6) sum_f det(x_i, x_j, x_k), read from the
    mesh's stored geometry record; exact for polyhedra, negative if the
    orientation is inward.
    """
    from .curvature import geometry

    return geometry(mesh).volume


def diameter(mesh):
    """Exact max pairwise vertex distance, by box-pair pruning.

    The method follows Malandain & Boissonnat, "Computing the diameter of
    a point set" (2002), and Har-Peled, "A practical approach for
    computing the diameter of a point set" (SoCG 2001). A chain of
    farthest points gives a lower bound ``best`` on the squared diameter.
    Pairs of axis-aligned boxes of vertices, refined from the one box of
    all vertices down to single vertices, are dropped when their
    farthest-corner bound is below ``best``.

    Exactness: the bound is computed like a pair's d², as ``np.sum(d ** 2)``
    with ``d = max(|hi_a - lo_b|, |hi_b - lo_a|)`` per axis. Subtraction,
    squaring and the fixed-order sum all round monotonically, so no point
    pair of two boxes has a float d² above the boxes' float bound, and the
    pair that attains the maximum is never dropped. The result is bitwise
    the square root of the largest ``np.sum((x_i - x_j) ** 2)`` over all
    vertex pairs.
    """
    return float(np.sqrt(_max_pair_d2(mesh.vertices)))


# Farthest-point rounds for the lower bound, and the number of box or
# point pairs one vectorized step of the pair scan handles.
_FARTHEST_ROUNDS = 4
_PAIR_CHUNK = 1 << 15


def _max_pair_d2(points):
    """Largest ``np.sum((a - b) ** 2)`` over pairs of ``points``; see :func:`diameter`.

    The points are sorted in Morton order on a grid of ``2**depth`` cells
    a side, ``depth`` growing with N, so every cell of every coarser level
    is a contiguous run; each cell keeps the actual min/max box of its
    points. Survivors are refined in chunks, depth first, so extra memory
    is O(N) plus a few chunks per level. The result is the maximum over
    the surviving point pairs.
    """
    p = np.asarray(points, dtype=np.float64)
    n = len(p)
    best, i = 0.0, 0
    for _ in range(_FARTHEST_ROUNDS):
        d2 = np.sum((p - p[i]) ** 2, axis=1)
        j = int(np.argmax(d2))
        if d2[j] <= best:
            break
        best, i = d2[j], j

    depth = max(1, int(np.ceil(np.log2(2.0 * n ** (1.0 / 3.0)))))
    lo = p.min(axis=0)
    extent = p.max(axis=0) - lo
    frac = np.divide(p - lo, extent, out=np.zeros_like(p), where=extent > 0)
    q = np.minimum((frac * 2**depth).astype(np.int64), 2**depth - 1)
    code = np.zeros(n, dtype=np.int64)
    for bit in range(depth):
        for axis in range(3):
            code |= ((q[:, axis] >> bit) & 1) << (3 * bit + axis)
    order = np.argsort(code, kind="stable")
    p, code = p[order], code[order]

    # cells of each level: first point; the level below the finest is
    # the points themselves
    starts = [np.flatnonzero(np.concatenate([[True], np.diff(code >> 3 * (depth - level)) != 0]))
              for level in range(depth + 1)]
    starts.append(np.arange(n))
    # per level: first child and child count of each cell, and the
    # children's boxes (the finest level's children are points)
    levels = []
    for level in range(depth + 1):
        children = starts[level + 1]
        first = np.searchsorted(children, starts[level])
        count = np.diff(np.append(first, len(children)))
        boxes = None
        if level < depth:
            boxes = (np.minimum.reduceat(p, children, axis=0), np.maximum.reduceat(p, children, axis=0))
        levels.append((first, count, boxes))

    def scan(level, a, b):
        """Largest surviving point-pair d² below the cell pairs (a, b) of ``level``.

        Child pairs are scanned one chunk at a time, and survivors go one
        level down as soon as a chunk's worth has gathered, so each level
        holds O(chunk) pairs at a time.
        """
        first, count, boxes = levels[level]
        nb = count[b]
        size = count[a] * nb
        ends = np.cumsum(size)
        top, found, n_found = 0.0, [], 0
        for start in range(0, int(ends[-1]), _PAIR_CHUNK):
            k = np.arange(start, min(start + _PAIR_CHUNK, int(ends[-1])))
            r = np.searchsorted(ends, k, side="right")
            local = k - (ends[r] - size[r])
            ia = first[a[r]] + local // nb[r]
            ib = first[b[r]] + local % nb[r]
            if boxes is None:  # points: the bound is the pair's d² itself
                bound = np.sum((np.take(p, ia, axis=0) - np.take(p, ib, axis=0)) ** 2, axis=1)
            else:
                lo, hi = boxes
                d = np.maximum(
                    np.abs(np.take(hi, ia, axis=0) - np.take(lo, ib, axis=0)),
                    np.abs(np.take(hi, ib, axis=0) - np.take(lo, ia, axis=0)),
                )
                bound = np.sum(d**2, axis=1)
            # cells are in Morton order, so a pair of distinct parents has
            # ia < ib; ia > ib only repeats a pair within one parent
            keep = (ia <= ib) & (bound >= best)
            if boxes is None:
                top = max(top, float(bound.max(where=keep, initial=0.0)))
                continue
            found.append((ia[keep], ib[keep]))
            n_found += len(found[-1][0])
            if n_found >= _PAIR_CHUNK or (n_found and start + _PAIR_CHUNK >= ends[-1]):
                a_next, b_next = (np.concatenate(c) for c in zip(*found))
                top = max(top, scan(level + 1, a_next, b_next))
                found, n_found = [], 0
        return top

    zero = np.zeros(1, dtype=np.int64)  # level 0: the one cell, paired with itself
    return scan(0, zero, zero)
