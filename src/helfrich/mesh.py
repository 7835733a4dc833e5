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

import math

import numpy as np

from .errors import (
    DegenerateFace,
    IndexOutOfRange,
    InconsistentOrientation,
    NonManifold,
)

__all__ = ["TriMesh", "build_mesh", "enclosed_volume", "diameter"]

# Attributes that depend on the faces only; with_vertices shares them.
_CONNECTIVITY = (
    "faces", "half_edge_origin", "half_edge_dest", "half_edge_twin", "half_edge_face",
    "half_edge_next", "edges", "edge_faces", "_edge_of_halfedge", "_n_components",
    "_nbr_csr", "_face_rows",
)


def _scatter(index, values, n):
    """Sum ``values[c][..., r]`` into bin ``index[c, r]`` of ``n`` bins.

    ``index`` is (C, R) and ``values`` holds C blocks of shape (R,) or
    (k, R); the result has shape ``(n,)`` or ``(k, n)``. Each row of a
    block is summed by ``np.bincount``, r in order, and the blocks are
    added in turn, so the result is bitwise reproducible.
    """
    lead = np.shape(values[0])[:-1]
    out = np.zeros(lead + (n,))
    rows = out.reshape(-1, n)
    for idx, vals in zip(index, values):
        for row, weights in zip(rows, np.reshape(vals, (len(rows), len(idx)))):
            row += np.bincount(idx, weights=weights, minlength=n)
    return out


# Row helpers on component-major blocks: ``x[k]`` is component k of every
# vector. Each keeps the bits of the numpy reduction it replaces on the
# transposed (n, 3) data (numpy 2.4; ``test_mesh`` checks the orders).


def _dot(x, y):
    """Dot products of (3, ...) blocks, bitwise ``einsum("ij,ij->i")``.

    einsum sums the three products as (x0 y0 + x2 y2) + x1 y1; the order
    (x0 y0 + x1 y1) + x2 y2 rounds differently. Its sums start from +0,
    so a zero dot is +0 even where every product is -0.
    """
    out = x[0] * y[0]
    out += x[2] * y[2]
    out += x[1] * y[1]
    out += 0.0
    return out


def _norm(x):
    """Lengths of (3, ...) blocks, bitwise ``np.linalg.norm(axis=1)``: sqrt((x0² + x1²) + x2²)."""
    out = x[0] * x[0]
    out += x[1] * x[1]
    out += x[2] * x[2]
    return np.sqrt(out, out=out)


def _cross(a, b):
    """Cross products of two (3, ...) blocks, bitwise equal to ``np.cross``.

    The three components ``a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0`` go
    straight into the rows of a preallocated array.
    """
    out = np.empty(a.shape)
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[i], b[j], out=out[c])
        out[c] -= a[j] * b[i]
    return out


def _columns(rows):
    """C-contiguous (n, 3) copy of a (3, n) block.

    One strided write per component; numpy's own transposed copy
    (``rows.T.copy()``) runs an inner loop of length 3 and takes about
    twice as long.
    """
    out = np.empty(rows.shape[::-1])
    for k, row in enumerate(rows):
        out[:, k] = row
    return out


def _face_vectors(vertices, face_rows):
    """Corner-0 positions (3, F), edges ``e`` (3, 3, F) and area vectors (3, F).

    ``face_rows`` is the (3, F) corner index block (``TriMesh._face_rows``).
    ``e[c]`` runs from corner c to c + 1, ``e[c, k]`` its component k;
    ``-e[2]`` equals ``x2 - x0`` bitwise. The face-area check and the
    geometry record both start here.
    """
    rows = np.ascontiguousarray(vertices.T)
    # np.take gathers about 4x faster than rows[:, corner]
    x = [np.take(rows, corner, axis=1) for corner in face_rows]
    e = np.empty((3,) + x[0].shape)
    for c in range(3):  # in place; stacking would copy all three
        np.subtract(x[(c + 1) % 3], x[c], out=e[c])
    return x[0], e, 0.5 * _cross(e[0], -e[2])


def _count_components(edges, n):
    """Number of connected components of the graph on ``n`` nodes with ``edges`` (E, 2).

    Hook and compress (Shiloach & Vishkin, J. Algorithms 3, 1982) on a
    forest with ``parent[v] <= v`` whose roots are their own parents.
    Each round every root hooks onto the smallest root it shares an edge
    with, then pointer jumping flattens every tree to a star, so the next
    round again reads roots at both ends of each edge. While an edge joins
    two trees its larger root gets a strictly smaller parent, so the
    rounds end when both ends of every edge share a root; edges inside a
    tree are dropped as they appear. The roots left count the components.
    """
    parent = np.arange(n)
    a, b = edges.T
    while len(a):
        pa, pb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        split = parent[a] != parent[b]
        a, b = a[split], b[split]
    return int(np.count_nonzero(parent == np.arange(n)))


class TriMesh:
    """Validated triangle mesh with half-edge adjacency.

    Parameters
    ----------
    vertices : (V, 3) array_like
        Vertex positions.
    faces : (F, 3) array_like
        Vertex index triples, counterclockwise seen from outside.

    Raises
    ------
    NonManifold
        An edge with one or more than two incident faces, a duplicated
        face, or a pinched vertex.
    InconsistentOrientation, DegenerateFace, IndexOutOfRange
    """

    def __init__(self, vertices, faces):
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
        self._validate_indices()
        # component-major copy of the faces: the gathers and scatters of
        # the geometry record and the gradient read its contiguous rows
        self._face_rows = np.ascontiguousarray(f.T)
        self._build_half_edges()
        self._validate_vertex_links()
        self._validate_face_areas()
        for arr in (self.vertices, self.faces, self._face_rows):
            arr.setflags(write=False)

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
        # every undirected edge must appear exactly twice, once each way
        lo = np.minimum(origin, dest)
        hi = np.maximum(origin, dest)
        und = lo.astype(np.int64) * len(self.vertices) + hi
        order = np.argsort(und, kind="stable")
        grp = np.flatnonzero(np.diff(und[order]) != 0)
        sizes = np.diff(np.concatenate([[0], grp + 1, [nh]]))
        if (sizes > 2).any():
            raise NonManifold("edge with more than two incident faces")
        if (sizes < 2).any():
            raise NonManifold("boundary edge in closed mesh")
        # the two half-edges of edge k sit at 2 k and 2 k + 1 of the sort
        h1, h2 = order[0::2], order[1::2]
        if (origin[h1] == origin[h2]).any():
            raise InconsistentOrientation("shared edge traversed twice in the same direction")
        twin = np.empty(nh, dtype=np.int64)
        twin[h1] = h2
        twin[h2] = h1
        self.half_edge_origin = origin
        self.half_edge_dest = dest
        self.half_edge_twin = twin
        self.half_edge_face = np.repeat(np.arange(nf, dtype=np.int64), 3)
        nxt = np.arange(nh, dtype=np.int64).reshape(nf, 3)[:, [1, 2, 0]].ravel()
        self.half_edge_next = nxt
        # unique undirected edges, and the faces on each side
        self.edges = np.column_stack([lo[h1], hi[h1]])
        self.edge_faces = np.column_stack([self.half_edge_face[h1], self.half_edge_face[h2]])
        self._edge_of_halfedge = np.empty(nh, dtype=np.int64)
        self._edge_of_halfedge[order] = np.repeat(np.arange(len(h1), dtype=np.int64), 2)

    def _validate_vertex_links(self):
        """Each vertex star must be a single half-edge fan (no pinch points).

        The fans of a vertex are the cycles of the permutation
        h -> twin[next[next[h]]] on its outgoing half-edges. Each cycle is
        labelled with its smallest half-edge by min-propagation along the
        map with pointer doubling (Wyllie 1979), one round per bit of the
        largest valence: after r rounds a label is the minimum over 2**r
        consecutive half-edges of its cycle, starting at its own.
        """
        origin, twin, nxt = self.half_edge_origin, self.half_edge_twin, self.half_edge_next
        nh, nv = len(origin), len(self.vertices)
        label = np.arange(nh)
        ptr = twin[nxt[nxt]]
        for _ in range(int(np.bincount(origin).max() - 1).bit_length()):
            label = np.minimum(label, label[ptr])
            ptr = ptr[ptr]
        fans = np.bincount(origin[label == np.arange(nh)], minlength=nv)
        pinched = np.flatnonzero(fans > 1)
        if len(pinched):
            raise NonManifold(f"pinched vertex {pinched[0]}: star is not a single fan")

    def _validate_face_areas(self):
        area = _norm(_face_vectors(self.vertices, self._face_rows)[2])
        bad = int(np.argmin(area))
        if area[bad] <= self.area_floor:
            raise DegenerateFace(f"face {bad} has area {area[bad]:.3g} <= {self.area_floor:.3g}")

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
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def n_components(self):
        """Connected components of the edge graph, counted once per connectivity."""
        if not hasattr(self, "_n_components"):
            self._n_components = _count_components(self.edges, self.n_vertices)
        return self._n_components

    @property
    def genus(self):
        """Total genus of a closed mesh, summed over connected components."""
        return self.n_components - self.euler_characteristic // 2

    @property
    def bbox_diagonal(self):
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    @property
    def area_floor(self):
        """Face area at or below which a face is degenerate: 1e-12 * bbox_diagonal^2."""
        return 1e-12 * self.bbox_diagonal**2

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
        nothing computed from the old positions reaches the new mesh: its
        geometry record, face edges and phase splits included, is its own.
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
        return TriMesh(self.vertices, self.faces[:, ::-1])

    def angle_defects(self):
        """2*pi minus the incident corner angles, per vertex.

        The array is the mesh's stored geometry record's, and read-only.
        """
        from .curvature import geometry

        return geometry(self).defect


def build_mesh(vertices, faces):
    """Validate raw vertex/face arrays into a :class:`TriMesh`."""
    return TriMesh(vertices, faces)


def enclosed_volume(mesh):
    """Signed volume enclosed by a closed oriented mesh.

    Divergence-theorem sum (1/6) sum_f det(x_i, x_j, x_k), read from the
    mesh's stored geometry record; exact for polyhedra, negative if the
    orientation is inward.
    """
    from .curvature import geometry

    return geometry(mesh).volume


def diameter(mesh):
    """Exact max pairwise vertex distance, by pruning pairs of vertex cells.

    The method follows Malandain & Boissonnat, "Computing the diameter of
    a point set" (2002), and Har-Peled, "A practical approach for
    computing the diameter of a point set" (SoCG 2001). A chain of
    farthest points gives a lower bound ``best`` on the squared diameter.
    Pairs of cells of vertices, refined from the one cell of all vertices
    down to single vertices, are dropped when either of two bounds on the
    squared distance of their vertices is below ``best``:

    - the box bound ``np.sum(d ** 2)``, ``d = max(|hi_a - lo_b|, |hi_b -
      lo_a|)`` per axis, over the cells' min/max boxes. Its slack is
      linear in the cell size, so on a round shell each vertex would keep
      O(√N) partners.
    - the cone bound. About the bounding-box centre c, each cell holds a
      unit axis n, a half-angle α with every vertex direction within α of
      n, and the vertices' radius range [r_lo, r_hi]. Two vertices of
      cells a and b subtend an angle ψ <= θ = min(π, φ + α_a + α_b) at c,
      φ the angle of the axes, so by the law of cosines
      ``|x - y|² = (r_x - r_y)² + 2 r_x r_y (1 - cos ψ)
      <= gap² + 2 r_hi_a r_hi_b (1 - cos θ)``, with
      ``gap = max(r_hi_a - r_lo_b, r_hi_b - r_lo_a)``, which bounds
      r_x² + r_y² - 2 r_x r_y cos θ at every corner of the two radius
      ranges at once. Near the farthest pair cos is flat, so the slack is
      second order in the cell size.

    Exactness of the box bound: it is computed like a pair's d².
    Subtraction, squaring and the fixed-order sum all round monotonically,
    so no vertex pair of two boxes has a float d² above the boxes' float
    bound.

    Exactness of the cone bound, with u = 2**-53, and ε <= 1e-14 the error
    of numpy's ``arccos`` and ``cos`` (a few ulps). It is evaluated in
    units of s, a power of two with every |x_k - c_k| <= s/2, so radii are
    below 1 and every error below is absolute; underflow adds at most
    2**-1070 to any of them.

    1. Directions: offsets, radii and unit vectors round to within 4u of
       the radius, 2u of the direction and 6u of unit length. A vertex
       with radius <= 2**-500 gets direction e_x; as r < 2**-499, the law
       of cosines above moves by at most 4r < 2**-497 whatever its true
       direction.
    2. Half-angles and the axis angle: a computed cosine of two such unit
       vectors is within δ = 20u of the cosine of their angle (3u from
       the dot product, 12u from their lengths). arccos grows fastest at
       ±1, so an error δ in its argument moves it by at most
       arccos(1 - δ) < 1.01 √(2δ) = 6.8e-8 rad; clipping to [-1, 1] only
       moves a cosine towards the true one. With the direction error and
       ε, each computed angle, α = arccos(min cos) over the cell's vertices
       and φ alike, is short of the true one by less than m/3, where
       m = 2**-20 rad. Each α carries +m, so α_a + α_b + φ exceeds the
       true angle bound by at least m, far more than the rounding of the
       two sums (< 1e-14). cos falls on [0, π], and cos(fl(π)) rounds to
       -1, so ``1 - cos θ`` is short by less than ε + 3u.
    3. Corner evaluation: with radii within 4u, ``gap`` within 9u and
       every term at most 4, the float bound is short of the real one by
       less than 76u + 2ε + 2**-497 < 3.1e-14.

    A cell pair is dropped when its float bound is below
    ``t = (min(best, 2**1023) - 2**-1020) / s² - 2**-40`` (t < 0, so
    nothing is dropped, when best <= 2**-1020). Rounding t costs 3u, so
    any vertex pair in it has |x - y|² < best - 2**-1020 -
    s² (2**-40 - 3u - 3.1e-14). Its float d² is at most
    (1 + 6u) |x - y|² + 2**-1073, and best < s², so it is below ``best``;
    the cap 2**1023 keeps it finite. So the pair that attains the maximum
    is never dropped, and for coordinates whose differences are finite the
    result is bitwise the square root of the largest
    ``np.sum((x_i - x_j) ** 2)`` over all vertex pairs. s is clamped to
    [2**-500, 2**600]; at the top, s² overflows and the cone drops nothing.
    """
    return float(np.sqrt(_max_pair_d2(mesh.vertices)))


# Farthest-point rounds for the lower bound, and the number of cell or
# point pairs one vectorized step of the pair scan handles.
_FARTHEST_ROUNDS = 4
_PAIR_CHUNK = 1 << 15
# Rounding margins of the cone bound, proved in diameter's docstring: m,
# the radians added to every half-angle; the slack in units of s² and in
# original units; the radius, in units of s, below which a direction is e_x.
_ANGLE_MARGIN = 2.0**-20
_MARGIN = 2.0**-40
_TINY = 2.0**-1020
_CENTRAL = 2.0**-500
_E_X = np.array([[1.0], [0.0], [0.0]])


def _directions(v):
    """Lengths and unit vectors of the columns of ``v``; e_x for lengths <= ``_CENTRAL``."""
    length = np.sqrt(np.sum(v**2, axis=0))
    central = length <= _CENTRAL
    return length, np.where(central, _E_X, v / np.where(central, 1.0, length))


def _max_pair_d2(points):
    """Largest ``np.sum((a - b) ** 2)`` over pairs of ``points``; see :func:`diameter`.

    The points are sorted in Morton order on a grid of ``2**depth`` cells
    a side, ``depth`` growing with N, so every cell of every coarser level
    is a contiguous run. Each cell keeps the actual min/max box of its
    points and their cone and radius range about the box centre; boxes,
    radius ranges and axes are reduced level by level from the points.
    Survivors are refined in chunks, depth first, so extra memory is O(N)
    plus a few chunks per level. The result is the maximum over the
    surviving point pairs.
    """
    x = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    n = x.shape[1]
    best, i = 0.0, 0
    for _ in range(_FARTHEST_ROUNDS):
        d2 = np.sum((x - x[:, i:i + 1]) ** 2, axis=0)
        j = int(np.argmax(d2))
        if d2[j] <= best:
            break
        best, i = d2[j], j

    # the finest cells hold a few points: with the cone bound they prune
    # about as well as single points would, at one level of reductions less
    depth = max(1, int(np.ceil(np.log2(n ** (1.0 / 3.0)))))
    lo = x.min(axis=1)
    extent = x.max(axis=1) - lo
    frac = np.divide(x - lo[:, None], extent[:, None], out=np.zeros_like(x), where=extent[:, None] > 0)
    q = np.minimum((frac * 2**depth).astype(np.int64), 2**depth - 1)
    # Morton code: bit b of the grid index along axis k goes to bit 3b + k
    side = np.arange(2**depth)
    spread = np.zeros(2**depth, dtype=np.int64)
    for bit in range(depth):
        spread |= ((side >> bit) & 1) << (3 * bit)
    code = spread[q[0]] | spread[q[1]] << 1 | spread[q[2]] << 2
    order = np.argsort(code, kind="stable")
    x, code = np.take(x, order, axis=1), code[order]

    # offsets from the box centre c in units of s, a power of two with
    # every offset component in [-1/2, 1/2]
    exponent = int(np.frexp(extent.max())[1]) + 1
    scale = math.ldexp(1.0, min(max(exponent, -500), 600))
    radius, unit = _directions((x - (lo + 0.5 * extent)[:, None]) / scale)
    cut = (min(best, 2.0**1023) - _TINY) / (scale * scale) - _MARGIN

    # first point of every cell (starts) and first child of every cell
    # (firsts), per level; the children of the finest level are the points
    starts, firsts = [np.arange(n)], []
    for level in range(depth, -1, -1):
        key = code[starts[0]] >> 3 * (depth - level)
        firsts.insert(0, np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]])))
        starts.insert(0, starts[0][firsts[0]])
    # the children of each level: box corners, radius range, cone axis and
    # half-angle; axes are normalized sums of their points' directions
    cells, total = [(x, x, radius, radius, None, None)], unit
    for level in range(depth, 0, -1):
        lo, hi, r_lo, r_hi = cells[0][:4]
        first = firsts[level]
        total = np.add.reduceat(total, first, axis=1)
        axis = _directions(total)[1]
        size = np.diff(np.append(starts[level], n))
        cos = np.minimum.reduceat(np.sum(unit * np.repeat(axis, size, axis=1), axis=0), starts[level])
        cells.insert(0, (
            np.minimum.reduceat(lo, first, axis=1), np.maximum.reduceat(hi, first, axis=1),
            np.minimum.reduceat(r_lo, first), np.maximum.reduceat(r_hi, first),
            axis, np.arccos(np.clip(cos, -1.0, 1.0)) + _ANGLE_MARGIN,
        ))

    def scan(level, a, b):
        """Largest surviving point-pair d² below the cell pairs (a, b) of ``level``.

        Child pairs are scanned one chunk at a time, and survivors go one
        level down as soon as a chunk's worth has gathered, so each level
        holds O(chunk) pairs at a time.
        """
        first = firsts[level]
        lo, hi, r_lo, r_hi, axis, half = cells[level]
        count = np.diff(np.append(first, len(r_lo)))
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
            # cells are in Morton order, so a pair of distinct parents has
            # ia < ib; ia > ib only repeats a pair within one parent
            keep = ia <= ib
            ia, ib = ia[keep], ib[keep]
            d = np.maximum(
                np.abs(np.take(hi, ia, axis=1) - np.take(lo, ib, axis=1)),
                np.abs(np.take(hi, ib, axis=1) - np.take(lo, ia, axis=1)),
            )
            bound = np.sum(d**2, axis=0)  # for points: the pair's d² itself
            if level == depth:
                top = max(top, float(bound.max(initial=0.0)))
                continue
            keep = bound >= best
            ia, ib = ia[keep], ib[keep]
            cos = np.sum(np.take(axis, ia, axis=1) * np.take(axis, ib, axis=1), axis=0)
            theta = np.arccos(np.clip(cos, -1.0, 1.0)) + half[ia] + half[ib]
            gap = np.maximum(r_hi[ia] - r_lo[ib], r_hi[ib] - r_lo[ia])
            keep = gap**2 + 2.0 * r_hi[ia] * r_hi[ib] * (1.0 - np.cos(np.minimum(theta, np.pi))) >= cut
            found.append((ia[keep], ib[keep]))
            n_found += len(found[-1][0])
            if n_found >= _PAIR_CHUNK or (n_found and start + _PAIR_CHUNK >= ends[-1]):
                a_next, b_next = (np.concatenate(c) for c in zip(*found))
                top = max(top, scan(level + 1, a_next, b_next))
                found, n_found = [], 0
        return top

    zero = np.zeros(1, dtype=np.int64)  # level 0: the one cell, paired with itself
    return scan(0, zero, zero)
