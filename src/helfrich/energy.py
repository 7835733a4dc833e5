"""Total bending energies: single-phase, Willmore, and sharp-interface multiphase.

Vertex curvature integrates against mixed areas. For multiphase energies a
vertex's mixed area is split between phases proportionally to the area of
its incident faces in each phase, and every interface edge charges its
length to *both* adjacent phases (each phase pays line tension on its own
boundary curve).

Each function computes its value by one route. The cross-checks between
routes are tests: ``canham_helfrich`` against the sum of the pointwise
density ``density.f_ch(nu, A)`` times the mixed areas on every corpus mesh
(``tests/test_energy.py`` and criterion 4 in ``tests/test_acceptance.py``),
and the two Willmore normalizations against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curvature import geometry
from .errors import PhaseCountMismatch
from .mesh import _scatter

__all__ = [
    "PhaseField",
    "EnergyReport",
    "PhaseReport",
    "canham_helfrich",
    "willmore",
    "multiphase_energy",
    "vertex_phase_weights",
]


class PhaseField:
    """Per-face integer phase labels in {1..N}.

    Parameters
    ----------
    labels : (F,) array_like of int
        One label per face, 1-based. Floats are accepted only where they
        are exact integers.
    n_phases : int, optional
        Number of phases, a whole number; defaults to ``max(labels)``;
        ``labels`` keeps a read-only copy, so stored splits stay valid.
    """

    def __init__(self, labels, n_phases=None):
        given = np.asarray(labels)
        with np.errstate(invalid="ignore"):  # NaN and inf are reported below
            labels = given.astype(np.int64)
        if labels.ndim != 1:
            raise PhaseCountMismatch("labels must be one integer per face")
        if given.dtype.kind == "f":
            inexact = np.flatnonzero(labels != given)
            if inexact.size:
                i = int(inexact[0])
                raise PhaseCountMismatch(f"face {i} has phase label {float(given[i])}, not an integer")
        if labels.size and labels.min() < 1:
            raise PhaseCountMismatch("phase labels are 1-based")
        labels.setflags(write=False)
        self.labels = labels
        if n_phases is None:
            n_phases = labels.max(initial=1)
        elif not (math.isfinite(n_phases) and n_phases == math.floor(n_phases)):
            raise PhaseCountMismatch(f"phase count {n_phases} is not an integer")
        self.n_phases = int(n_phases)
        if labels.max(initial=1) > self.n_phases:
            raise PhaseCountMismatch("label exceeds declared phase count")

    @classmethod
    def uniform(cls, mesh):
        return cls(np.ones(mesh.n_faces, dtype=np.int64))

    def check(self, mesh):
        if len(self.labels) != mesh.n_faces:
            raise PhaseCountMismatch(
                f"{len(self.labels)} labels for {mesh.n_faces} faces"
            )

    def interface_edges(self, mesh):
        """Indices into ``mesh.edges`` where the two incident faces differ."""
        self.check(mesh)
        ef = mesh.edge_faces
        return np.flatnonzero(self.labels[ef[:, 0]] != self.labels[ef[:, 1]])


def vertex_phase_weights(mesh, phases):
    """(V, N) fractions splitting each vertex's mixed area between phases.

    Proportional to incident face area per phase; rows sum to 1. Read-only:
    the C-contiguous array of the phase split stored on the mesh's
    geometry record (:func:`_split` gives its layout and summation order).
    """
    return _split(mesh, phases)[0]


def canham_helfrich(mesh, curv, params):
    """Single-phase bending energy sum_v [beta/2 (H - H0)^2 + gamma K] a."""
    a = curv.mixed_area
    return float(np.sum((0.5 * params.beta * (curv.H - params.h0) ** 2 + params.gamma * curv.K) * a))


def willmore(mesh, curv, normalization="quarter"):
    """Willmore energy: 'quarter' = 1/4 sum H^2 a, 'varifold' = sum |Hbar|^2 a."""
    if normalization == "quarter":
        return 0.25 * float(np.sum(curv.H**2 * curv.mixed_area))
    if normalization == "varifold":
        return float(np.einsum("vi,vi,v->", curv.Hbar, curv.Hbar, curv.mixed_area))
    raise ValueError(f"unknown normalization {normalization!r}")


@dataclass
class PhaseReport:
    phase_id: int
    area: float
    bending: float
    gauss: float
    spontaneous: float
    boundary_length: float


@dataclass
class EnergyReport:
    """Decomposed multiphase energy; ``total`` equals the sum of its parts."""

    total: float
    line_tension: float
    willmore_quarter: float
    willmore_varifold: float
    phases: list = field(default_factory=list)

    def parts_sum(self):
        return self.line_tension + sum(p.bending + p.gauss + p.spontaneous for p in self.phases)


def multiphase_energy(mesh, curv, phases, params_list):
    """Sharp-interface multiphase energy with per-phase line tension.

    Parameters
    ----------
    mesh : TriMesh
        Unread: every term is taken from ``curv`` and ``curv.mesh``.
    curv : CurvatureField
    phases : PhaseField or None
        Labels must cover {1..N}; one entry of ``params_list`` per phase.
        None is one phase over the whole mesh.
    params_list : sequence of MaterialParams
        ``params_list[i]`` applies to phase ``i + 1``; its ``sigma`` is the
        line tension that phase pays on its boundary curve.

    Returns
    -------
    EnergyReport
    """
    report = EnergyReport(0.0, 0.0, willmore(mesh, curv, "quarter"), willmore(mesh, curv, "varifold"))
    report.phases, report.line_tension = _phase_terms(curv.mesh, phases, params_list)
    report.total = report.parts_sum()
    return report


class _Interface(NamedTuple):
    """Interface edges (ids into ``mesh.edges``), the labels on both sides, the lengths."""

    edges: np.ndarray
    left: np.ndarray
    right: np.ndarray
    length: np.ndarray

    def boundary_length(self, phase_id):
        """Length of the boundary curve of phase ``phase_id``."""
        return float(self.length[(self.left == phase_id) | (self.right == phase_id)].sum())


# the interface of phases=None, one phase over the whole mesh
_NO_INTERFACE = _Interface(*(np.empty(0, dtype=np.int64),) * 3, np.empty(0))


def _interface(mesh, phases):
    iface = phases.interface_edges(mesh)
    ef = mesh.edge_faces[iface]
    ends = mesh.edges[iface]
    # not the record's half-edge lengths: sqrt of an einsum can differ by an ulp
    length = np.linalg.norm(mesh.vertices[ends[:, 0]] - mesh.vertices[ends[:, 1]], axis=1)
    return _Interface(iface, phases.labels[ef[:, 0]], phases.labels[ef[:, 1]], length)


def _split(mesh, phases):
    """Read-only (V, N) vertex phase weights and the :class:`_Interface`, once per geometry record.

    The weights are a C-contiguous (V, N) array: the face areas scattered
    into bin ``v * N + label - 1``, each row then divided by its sum
    (``sum(axis=1)`` on that array, whose order numpy fixes by N alone),
    one phase column at a time. Each column's division is elementwise, so
    the weights have the bits of the row-broadcast division at any N.
    """
    geo = geometry(mesh)
    if phases not in geo.splits:
        phases.check(mesh)
        n = phases.n_phases
        bins = mesh._face_rows * n + (phases.labels - 1)
        w = _scatter(bins, (geo.area,) * 3, mesh.n_vertices * n).reshape(mesh.n_vertices, n)
        total = w.sum(axis=1)
        total[total == 0] = 1.0
        for p in range(n):
            np.divide(w[:, p], total, out=w[:, p])
        w.setflags(write=False)
        geo.splits[phases] = w, _interface(mesh, phases)
    return geo.splits[phases]


def _phase_split(mesh, phases, params_list):
    """(V, P) vertex phase weights and the :class:`_Interface`, one parameter set per phase.

    Every energy route reads its phase split here, so PhaseCountMismatch
    is raised in one place. ``phases=None`` is one phase over the whole
    mesh: weights None and no interface.
    """
    # PhaseField.uniform gives bitwise the same energy and gradient, but
    # building its split costs a vertex scatter and an interface pass per
    # record: with_vertices plus energy_and_gradient on a jittered
    # icosphere(4) went 10.1 -> 11.3 ms (medians of 40 interleaved runs of
    # 20 calls, 2-vCPU VM), so the single-phase path keeps its None.
    if phases is None:
        if len(params_list) != 1:
            raise PhaseCountMismatch(f"{len(params_list)} parameter sets but no phase labels")
        return None, _NO_INTERFACE
    if phases.n_phases != len(params_list):
        raise PhaseCountMismatch(f"{phases.n_phases} phases but {len(params_list)} parameter sets")
    return _split(mesh, phases)


def _phase_terms(mesh, phases, params_list):
    """Per-phase reports and the total line tension of the mesh's geometry record.

    The breakdown :func:`multiphase_energy` reports, without the Willmore
    terms, from the record's mixed areas a, mean curvature H and Gauss
    curvature K (a curvature field's arrays are those same arrays);
    ``phases=None`` is one phase over the whole mesh.
    """
    geo = geometry(mesh)
    a, H, K = geo.a, geo.H, geo.K
    w, iface = _phase_split(mesh, phases, params_list)
    reports = []
    line = 0.0
    for p, params in enumerate(params_list, start=1):
        ap = a if w is None else a * w[:, p - 1]
        bending = float(np.sum(0.5 * params.beta * H**2 * ap))
        spont = float(np.sum((-params.beta * params.h0 * H + 0.5 * params.beta * params.h0**2) * ap))
        gauss = float(np.sum(params.gamma * K * ap))
        blen = iface.boundary_length(p)
        line += params.sigma * blen
        reports.append(PhaseReport(p, float(ap.sum()), bending, gauss, spont, blen))
    return reports, line
