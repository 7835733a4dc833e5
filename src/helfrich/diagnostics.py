"""Numerical verification of the proved inequalities on arbitrary meshes.

Every check evaluates both sides of one inequality on a mesh and records
name, values, margin, and pass/fail. Reports are reproducible bit-for-bit
for a fixed mesh and seed. The lower-semicontinuity statement has no
pointwise discrete counterpart, so no check here covers it; the tests
check it only by refinement, as convergence of the energy on refined
analytic shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import curvature_field, geometry
from .density import MaterialParams, coercivity_constants
from .energy import canham_helfrich, willmore
from .errors import NotConvex
from .mesh import _dot, _norm
from .mesh import diameter as mesh_diameter

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "verify_pointwise",
    "verify_first_variation",
    "verify_energy_bounds",
    "verify_diameter",
    "verify_li_yau",
    "standard_report",
]


@dataclass
class CheckRecord:
    """One verified inequality: pass iff lhs <= rhs + tolerance."""

    name: str
    lhs: float
    rhs: float
    margin: float  # rhs + tolerance - lhs; nonnegative iff passed
    passed: bool
    statement: str


@dataclass
class VerificationReport:
    mesh_name: str
    n_vertices: int
    n_edges: int
    n_faces: int
    euler_characteristic: int
    genus: int
    components: int
    mean_edge_length: float
    records: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(r.passed for r in self.records)

    def to_dict(self):
        """JSON layout, not the fields: a mesh block, the checks by name, and all_pass."""
        return {
            "mesh": {
                "name": self.mesh_name,
                "vertices": self.n_vertices,
                "edges": self.n_edges,
                "faces": self.n_faces,
                "euler_characteristic": self.euler_characteristic,
                "genus": self.genus,
                "components": self.components,
                "mean_edge_length": self.mean_edge_length,
            },
            "all_pass": bool(self.all_pass),
            "checks": sorted(self.records, key=lambda r: r.name),
        }

    @classmethod
    def for_mesh(cls, mesh, name="mesh"):
        return cls(
            name, mesh.n_vertices, mesh.n_edges, mesh.n_faces,
            mesh.euler_characteristic, mesh.genus, mesh.n_components,
            mesh.mean_edge_length,
        )


def _record(name, lhs, rhs, tol, statement):
    return CheckRecord(name, float(lhs), float(rhs), float(rhs + tol - lhs), bool(lhs <= rhs + tol), statement)


def verify_pointwise(curv):
    """Pointwise checks: |Hbar|^2 <= 2|A|^2 and the tensor identities."""
    H2 = curv.H**2
    A2 = curv.norm_A_squared()
    worst = int(np.argmax(H2 - 2.0 * A2))
    records = [
        _record(
            "pointwise/mean_curvature_vs_A", H2[worst], 2.0 * A2[worst], 1e-10,
            "|Hbar|^2 <= 2 |A|^2 at every vertex",
        )
    ]
    k_floor = geometry(curv.mesh).k_floor
    gauss_rhs = 0.5 * H2 - 0.5 * (curv.kappa1**2 + curv.kappa2**2)
    scale = np.abs(curv.K) + 0.5 * H2 + 0.5 * (curv.kappa1**2 + curv.kappa2**2)
    err = np.abs(curv.K - gauss_rhs) - (1e-10 * scale + 1.01 * k_floor)
    worst = int(np.argmax(err))
    records.append(
        _record(
            "pointwise/gauss_identity", abs(curv.K[worst] - gauss_rhs[worst]),
            1e-10 * scale[worst] + 1.01 * k_floor, 0.0,
            "K = |Hbar|^2 / 2 - |A|^2 / 4 at every vertex",
        )
    )
    A = curv.curvature_tensor
    II = curv.second_fundamental_form
    trace = np.einsum("vjij->vi", A)
    terr = np.abs(trace - curv.Hbar).max(axis=1)
    tscale = 1e-10 * (np.abs(curv.H) + 1.0 / curv.mesh.mean_edge_length)
    worst = int(np.argmax(terr - tscale))
    records.append(
        _record(
            "pointwise/trace_identity", terr[worst], tscale[worst], 0.0,
            "sum_j A_jij = Hbar_i at every vertex",
        )
    )
    frob_err = np.abs(np.einsum("vijk,vijk->v", A, A) - 2.0 * np.einsum("vijk,vijk->v", II, II))
    worst = int(np.argmax(frob_err - 1e-10 * (A2 + k_floor)))
    records.append(
        _record(
            "pointwise/frobenius_identity", frob_err[worst], 1e-10 * (A2[worst] + k_floor), 0.0,
            "|A|^2 = 2 |II|^2 at every vertex",
        )
    )
    sym_err = np.abs(A - (II.transpose(0, 1, 3, 2) + II)).max()
    records.append(
        _record(
            "pointwise/symmetrization", sym_err, 0.0, 1e-14 * max(1.0, A2.max()),
            "A_ijk = II^j_ik + II^k_ij componentwise",
        )
    )
    unit_err = np.abs(np.linalg.norm(curv.normal, axis=1) - 1.0).max()
    records.append(_record("pointwise/unit_normal", unit_err, 0.0, 1e-12, "|nu| = 1 at every vertex"))
    return records


_N_WAVES = 3  # plane waves per component of a random field


def _plane_waves(n_fields, length_scale, seed):
    """(wave (3, T, 3), phase (3, T), amp (3, T)) of each field, T = ``_N_WAVES``.

    Each field draws its wave, phase and amp in that order from one
    generator, so field k is the same whatever ``n_fields`` is.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_fields):
        wave = rng.normal(0.0, 1.5 / length_scale, size=(3, _N_WAVES, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, _N_WAVES))
        amp = rng.normal(0.0, 1.0, size=(3, _N_WAVES))
        yield wave, phase, amp


def _plane_wave_rows(rows, wave, phase, amp, work):
    """One plane-wave field at (3, N) point rows: values (3, N) and S (3, 3, N).

    ``X_i = sum_t amp[i,t] cos(wave[i,t] . x + phase[i,t])`` and its Jacobian
    is ``-S`` with ``S[i, j] = sum_t (amp[i,t] sin(...)) wave[i,t,j]``, the
    terms summed in t order. ``work`` is a (3, 3, 3, N) array, overwritten:
    its blocks hold the argument (then the cosines), the scaled sines and S,
    so a caller evaluating many fields allocates them once. Every operand
    is a contiguous row, and the bits equal the (N, ...) einsum forms: the
    argument is ``_dot`` over j (``einsum("itj,nj->nit")``), the values
    ``_dot`` over t (``einsum("it,nit->ni")``), and ``-S`` is
    ``-einsum("it,nit,itj->nij")``.
    """
    arg, trig, S = work
    w = wave.transpose(2, 0, 1)[..., None]
    np.multiply(w[0], rows[0], out=arg)
    arg += w[2] * rows[2]
    arg += w[1] * rows[1]
    arg += phase[..., None]
    np.sin(arg, out=trig)
    np.cos(arg, out=arg)
    vals = _dot(amp.T[..., None], arg.transpose(1, 0, 2))
    trig *= amp[..., None]
    np.multiply(trig[:, 0, None], wave[:, 0, :, None], out=S)
    for t in range(1, _N_WAVES):
        S += trig[:, t, None] * wave[:, t, :, None]
    return vals, S


def _divergence_integral(P, jac, mixed_area):
    """sum_v div^P X(x_v) a_v from the Jacobians of X and the projections P."""
    return float(np.einsum("vij,vij->v", P, jac) @ mixed_area)


def verify_first_variation(mesh, curv, n_fields=20, seed=0):
    """|delta V(X)| <= sqrt(2 mu) ||A||_L2 for random unit-sup-norm fields.

    A 5% tolerance on the right-hand side absorbs the vertex quadrature;
    the constant field and the identity field are included as anchors.
    The projections are built once. Each random field is evaluated once,
    by ``_plane_wave_rows`` on the (3, V) vertex rows into work arrays
    shared by all fields, and scaled to sup-norm 1 at the vertices.
    The scaled Jacobian is written into a C-contiguous (V, 3, 3) array
    before the divergence einsum: numpy reduces contiguous operands in
    FMA vector lanes, so that einsum's bits depend on the operand layout,
    and no row form reproduces them.
    """
    a = curv.mixed_area
    mu = float(a.sum())
    normA_L2 = float(np.sqrt(curv.norm_A_squared() @ a))
    rhs = np.sqrt(2.0 * mu) * normA_L2
    P = curv.projection()
    records = []

    def check(name, delta, statement):
        records.append(_record(name, abs(delta), rhs, 0.05 * rhs, statement))

    # a constant field has zero Jacobian; the random fields' scaled Jacobians reuse the array
    jac = np.zeros((mesh.n_vertices, 3, 3))
    const = _divergence_integral(P, jac, a)
    records.append(
        _record(
            "first_variation/constant_field", abs(const), 0.0, 1e-12 * mu,
            "delta V vanishes on constant fields (closed surface)",
        )
    )
    identity_delta = float(np.einsum("vii->v", P) @ a)
    check(
        "first_variation/identity_field", identity_delta,
        "delta V(x) = 2 mu <= sqrt(2 mu) ||A||_L2",
    )
    rows = np.ascontiguousarray(mesh.vertices.T)
    work = np.empty((3, 3, 3, mesh.n_vertices))
    for i, (wave, phase, amp) in enumerate(_plane_waves(n_fields, mesh.bbox_diagonal / 2, seed)):
        vals, S = _plane_wave_rows(rows, wave, phase, amp, work)
        # (-S) / sup == S / (-sup) exactly: one pass divides, negates and transposes
        np.divide(S.transpose(2, 0, 1), -_norm(vals).max(), out=jac)
        check(
            f"first_variation/random_{i:02d}", _divergence_integral(P, jac, a),
            "|delta V(X)| <= sqrt(2 mu) ||A||_L2 for |X| <= 1",
        )
    return records


def verify_energy_bounds(mesh, curv, params):
    """||A||^2 <= c1 (F + c2 mu) and its Willmore consequence.

    Raises NotConvex outside the strict convexity window.
    """
    if not params.strictly_convex:
        raise NotConvex("energy bounds need strictly convex parameters")
    c1, c2 = coercivity_constants(params)
    mu = float(curv.mixed_area.sum())
    normA2 = float(curv.norm_A_squared() @ curv.mixed_area)
    F = canham_helfrich(mesh, curv, params, check_paths=False)
    rhs = c1 * (F + c2 * mu)
    w_var = willmore(mesh, curv, "varifold")
    tag = f"beta={params.beta:g},gamma={params.gamma:g},H0={params.h0:g}"
    return [
        _record(
            f"energy_bounds/curvature[{tag}]", normA2, rhs, 1e-9 * abs(rhs),
            "||A||_L2^2 <= c1 (F + c2 mu)",
        ),
        _record(
            f"energy_bounds/willmore[{tag}]", w_var, 2.0 * rhs, 1e-9 * abs(rhs),
            "W_varifold <= 2 c1 (F + c2 mu)",
        ),
    ]


def verify_diameter(mesh, curv):
    """Lower and upper diameter bounds through the Willmore energy."""
    mu = float(curv.mixed_area.sum())
    w_q = willmore(mesh, curv, "quarter")
    w_var = willmore(mesh, curv, "varifold")
    diam = mesh_diameter(mesh)
    return [
        _record(
            "diameter/lower_varifold", mu / np.sqrt(mu * w_var), diam, 1e-9 * diam,
            "mu / sqrt(mu W_varifold) <= diam (closed mesh)",
        ),
        _record(
            "diameter/lower_quarter", np.sqrt(mu / w_q), diam, 1e-9 * diam,
            "sqrt(mu / W_quarter) <= diam",
        ),
        _record(
            "diameter/upper", diam, (2.0 / np.pi) * np.sqrt(mu * w_q),
            1e-9 * diam, "diam <= (2/pi) sqrt(mu W_quarter)",
        ),
    ]


def verify_li_yau(mesh, curv, multiplicity_hint=1):
    """W_quarter >= 4 pi k for a mesh of known max point multiplicity k."""
    w_q = willmore(mesh, curv, "quarter")
    rhs = 4.0 * np.pi * multiplicity_hint
    return [
        _record(
            f"li_yau/k={multiplicity_hint}", rhs, w_q, 0.02 * rhs,
            "4 pi k <= W_quarter (max point multiplicity k)",
        )
    ]


# the two strictly convex parameter sets of the energy-bound checks
_REPORT_PARAMS = (MaterialParams(1.0, -1.0, 0.0), MaterialParams(1.0, -0.5, 0.5))


def standard_report(mesh, name="mesh", n_fields=20, seed=0):
    """Full inequality suite on one mesh; returns a VerificationReport."""
    curv = curvature_field(mesh)
    report = VerificationReport.for_mesh(mesh, name)
    report.records.extend(verify_pointwise(curv))
    report.records.extend(verify_first_variation(mesh, curv, n_fields=n_fields, seed=seed))
    for params in _REPORT_PARAMS:
        report.records.extend(verify_energy_bounds(mesh, curv, params))
    report.records.extend(verify_diameter(mesh, curv))
    report.records.extend(verify_li_yau(mesh, curv))
    gauss_sum = float(curv.K @ curv.mixed_area)
    target = 2.0 * np.pi * mesh.euler_characteristic
    report.records.append(
        _record(
            "gauss_bonnet/total", abs(gauss_sum - target), 0.0, 1e-9,
            "sum K a = 2 pi chi exactly",
        )
    )
    return report
