"""verify_first_variation against the two-evaluation loop it replaced."""

import numpy as np
import pytest

from helfrich.curvature import curvature_field
from helfrich.diagnostics import _record, verify_first_variation


def first_variation(mesh, curv, X):
    """delta V(X) = sum_v div^P X(x_v) a_v for a field with known Jacobian.

    The projections are rebuilt on every call; the sum is the same
    einsum-then-dot as the one ``verify_first_variation`` makes.
    """
    vals, jac = X(mesh.vertices)
    return float(np.einsum("vij,vij->v", curv.projection(), jac) @ curv.mixed_area), vals


def _two_evaluation_records(mesh, curv, n_fields, seed):
    """Each random field evaluated once for its sup-norm and again, scaled,
    inside ``first_variation``, which rebuilds the projections per call."""
    # imported here, not at the top: test_diagnostics imports this module
    from test_diagnostics import random_trig_fields

    mu = float(curv.mixed_area.sum())
    normA_L2 = float(np.sqrt(curv.norm_A_squared() @ curv.mixed_area))
    rhs = np.sqrt(2.0 * mu) * normA_L2
    records = []

    def check(name, delta, statement):
        records.append(_record(name, abs(delta), rhs, 0.05 * rhs, statement))

    def constant_field(points):
        vals = np.zeros_like(points)
        vals[:, 0] = 1.0
        return vals, np.zeros((len(points), 3, 3))

    const, _ = first_variation(mesh, curv, constant_field)
    records.append(
        _record(
            "first_variation/constant_field", abs(const), 0.0, 1e-12 * mu,
            "delta V vanishes on constant fields (closed surface)",
        )
    )
    identity_delta = float(np.einsum("vii->v", curv.projection()) @ curv.mixed_area)
    check(
        "first_variation/identity_field", identity_delta,
        "delta V(x) = 2 mu <= sqrt(2 mu) ||A||_L2",
    )
    for i, X in enumerate(random_trig_fields(n_fields, length_scale=mesh.bbox_diagonal / 2, seed=seed)):
        vals, _ = X(mesh.vertices)
        sup = np.linalg.norm(vals, axis=1).max()

        def Xn(points, X=X, sup=sup):
            v, j = X(points)
            return v / sup, j / sup

        delta, _ = first_variation(mesh, curv, Xn)
        check(
            f"first_variation/random_{i:02d}", delta,
            "|delta V(X)| <= sqrt(2 mu) ||A||_L2 for |X| <= 1",
        )
    return records


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", ["icosphere4", "split_sphere"])
def test_records_equal_the_two_evaluation_loop(shape, seed, request):
    mesh = request.getfixturevalue(shape)
    if shape == "split_sphere":
        mesh = mesh[0]
    curv = curvature_field(mesh)
    got = verify_first_variation(mesh, curv, n_fields=20, seed=seed)
    want = _two_evaluation_records(mesh, curv, 20, seed)
    assert len(got) == len(want) == 22
    for g, w in zip(got, want):
        assert g == w, g.name
        # bitwise, not only equal in value
        assert [x.hex() for x in (g.lhs, g.rhs, g.margin)] == [x.hex() for x in (w.lhs, w.rhs, w.margin)]
