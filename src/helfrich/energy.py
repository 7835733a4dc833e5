"""Total bending energies: single-phase, Willmore, and sharp-interface multiphase.

Vertex curvature integrates against mixed areas. For multiphase energies a
vertex's mixed area is split between phases proportionally to the area of
its incident faces in each phase, and every interface edge charges its
length to *both* adjacent phases (each phase pays line tension on its own
boundary curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curvature import geometry
from .density import f_ch
from .errors import PhaseCountMismatch, UnknownPhase
from .mesh import _cross, _dot, _scatter

__all__ = [
    "PhaseField",
    "EnergyReport",
    "PhaseReport",
    "canham_helfrich",
    "willmore",
    "multiphase_energy",
    "boundary_mass",
    "interface_kink",
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
        Number of phases; defaults to ``max(labels)``; ``labels`` keeps a
        read-only copy, so the splits stored under the field stay valid.
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
        self.n_phases = int(n_phases if n_phases is not None else labels.max(initial=1))
        if labels.max(initial=1) > self.n_phases:
            raise PhaseCountMismatch("label exceeds declared phase count")

    @classmethod
    def uniform(cls, mesh):
        return cls(np.ones(mesh.n_faces, dtype=np.int64), n_phases=1)

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
    the array of the phase split stored on the mesh's geometry record.
    """
    return _split(mesh, phases)[0]


def canham_helfrich(mesh, curv, params, check_paths=True):
    """Single-phase bending energy sum_v [beta/2 (H - H0)^2 + gamma K] a.

    With ``check_paths`` the same value is also evaluated through the
    pointwise density ``f_ch(nu, A)`` and the two routes are required to
    agree to a relative 1e-9 (they are the same quantity written two ways).
    """
    a = curv.mixed_area
    scalar = float(
        np.sum((0.5 * params.beta * (curv.H - params.h0) ** 2 + params.gamma * curv.K) * a)
    )
    if check_paths:
        tensor = float(np.sum(f_ch(curv.normal, curv.curvature_tensor, params) * a))
        denom = max(abs(scalar), abs(tensor), 1e-300)
        if abs(scalar - tensor) > 1e-9 * denom:
            raise AssertionError(
                f"tensor and scalar energy paths disagree: {tensor!r} vs {scalar!r}"
            )
    return scalar


def willmore(mesh, curv, normalization="quarter"):
    """Willmore energy: 'quarter' = 1/4 sum H^2 a, 'varifold' = sum |Hbar|^2 a."""
    a = curv.mixed_area
    quarter = 0.25 * float(np.sum(curv.H**2 * a))
    varifold = float(np.einsum("vi,vi,v->", curv.Hbar, curv.Hbar, a))
    assert abs(varifold - 4.0 * quarter) <= 1e-12 * max(varifold, 1.0)
    if normalization == "quarter":
        return quarter
    if normalization == "varifold":
        return varifold
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
    report.phases, report.line_tension = _phase_terms(mesh, curv.mixed_area, curv.H, curv.K, phases, params_list)
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
    """Read-only (V, N) vertex phase weights and the :class:`_Interface`, once per geometry record."""
    geo = geometry(mesh)
    if phases not in geo.splits:
        phases.check(mesh)
        n = phases.n_phases
        bins = mesh._face_rows * n + (phases.labels - 1)
        w = _scatter(bins, (geo.area,) * 3, mesh.n_vertices * n).reshape(mesh.n_vertices, n)
        total = w.sum(axis=1, keepdims=True)
        w /= np.where(total == 0, 1.0, total)
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


def _phase_terms(mesh, a, H, K, phases, params_list):
    """Per-phase reports and the total line tension of vertex data (a, H, K).

    The breakdown :func:`multiphase_energy` reports, without the Willmore
    terms; ``phases=None`` is one phase over the whole mesh.
    """
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


def boundary_mass(mesh, phases, phase_id):
    """Length of the boundary curve of one phase (0 for a phase covering the mesh).

    This is the phase's interface length, the one line tension charges.
    """
    iface = _split(mesh, phases)[1]
    if not (phases.labels == phase_id).any():
        raise UnknownPhase(f"phase {phase_id} does not occur")
    return iface.boundary_length(phase_id)


def interface_kink(mesh, phases):
    """Max angle (radians) between face normals across interface edges.

    The discrete counterpart of the smooth no-kink condition at phase
    boundaries: refining a phase split of a smooth shape drives it to 0.
    """
    iface = _split(mesh, phases)[1].edges
    if len(iface) == 0:
        return 0.0
    geo = geometry(mesh)
    n0, n1 = (0.5 * _cross(geo.e[0][:, f], -geo.e[2][:, f]) / geo.area[f] for f in mesh.edge_faces[iface].T)
    cosang = np.clip(_dot(n0, n1), -1.0, 1.0)
    return float(np.arccos(cosang).max())
