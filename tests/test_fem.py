"""FEM and SIMP solver tests against independent oracles."""
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from topogan import fem
from topogan.exceptions import (
    ConstraintError,
    DimensionError,
    ParameterError,
    SingularSystemError,
    SolverError,
)
from topogan.fem import (
    PCG_TOL,
    POISSON_RATIO,
    X_MIN,
    YOUNG_MODULUS,
    BoundaryConditions,
    DensityField,
    MeshSpec,
    SimpParams,
    SolveResult,
    assemble_and_solve,
    compliance,
    element_stiffness,
    filter_sensitivities,
    oc_update,
    run_simp,
    _element_energies,
    _filter_matrix,
    _pcg,
    _sensitivities,
)


def element_sensitivities(x, u, penal, mesh):
    """dc/dx as `run_simp` computes it: `_sensitivities` of the element energies."""
    return _sensitivities(x, _element_energies(u, mesh), penal)


# ---------------------------------------------------------------------------
# oracles (independent implementations, written before the solver)

def ke_quadrature_oracle(nu, E):
    """2x2 Gauss quadrature of B^T D B for the unit bilinear quad, plane stress.

    Nodes ordered (0,0), (1,0), (1,1), (0,1); DOFs alternate (ux, uy).
    """
    D = E / (1 - nu**2) * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
    g = 1 / np.sqrt(3)
    K = np.zeros((8, 8))
    for xi in (-g, g):
        for eta in (-g, g):
            dN_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
            dN_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
            dN_dx = dN_dxi * 2  # x = (1 + xi) / 2 on the unit square
            dN_dy = dN_deta * 2
            B = np.zeros((3, 8))
            for i in range(4):
                B[0, 2 * i] = dN_dx[i]
                B[1, 2 * i + 1] = dN_dy[i]
                B[2, 2 * i] = dN_dy[i]
                B[2, 2 * i + 1] = dN_dx[i]
            K += B.T @ D @ B * 0.25  # det J = 1/4, unit weights
    return K


def dense_assembly_oracle(x, penal, mesh):
    """Dense global stiffness assembled with explicit per-element loops."""
    ke = ke_quadrature_oracle(POISSON_RATIO, YOUNG_MODULUS)
    n = mesh.n_dofs
    K = np.zeros((n, n))
    for ey in range(mesh.nely):
        for ex in range(mesh.nelx):
            n1 = (mesh.nely + 1) * ex + ey
            n2 = (mesh.nely + 1) * (ex + 1) + ey
            edof = [2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
                    2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3]
            scale = x[ey, ex] ** penal
            for a in range(8):
                for b in range(8):
                    K[edof[a], edof[b]] += scale * ke[a, b]
    return K


def gauss_solve_oracle(A, b):
    """Plain Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, piv]] = A[[piv, k]]
        b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k:] -= m * A[k, k:]
            b[i] -= m * b[k]
    u = np.zeros(n)
    for i in range(n - 1, -1, -1):
        u[i] = (b[i] - A[i, i + 1:] @ u[i + 1:]) / A[i, i]
    return u


def solve_oracle(x, penal, mesh, bc):
    """Full displacement vector via the dense oracle pipeline."""
    K = dense_assembly_oracle(x, penal, mesh)
    f = np.zeros(mesh.n_dofs)
    for dof, val in bc.loads:
        f[dof] += val
    free = np.setdiff1d(np.arange(mesh.n_dofs), bc.fixed_dofs)
    u = np.zeros(mesh.n_dofs)
    u[free] = gauss_solve_oracle(K[np.ix_(free, free)], f[free])
    return u


def cg_oracle_solve(density, penal, mesh, bc):
    """Full displacement vector by `_pcg` on the dense oracle's K(free, free).

    Takes `assemble_and_solve`'s arguments, so it can stand in for it.
    """
    free = np.setdiff1d(np.arange(mesh.n_dofs), bc.fixed_dofs)
    K = csr_matrix(dense_assembly_oracle(density.values, penal, mesh)[np.ix_(free, free)])
    u = np.zeros(mesh.n_dofs)
    u[free] = _pcg(K, bc.force_vector(mesh)[free], PCG_TOL)
    return u


def filter_oracle(x, dc, rmin):
    """O(N^2) double loop over element pairs."""
    nely, nelx = x.shape
    out = np.zeros_like(dc)
    for ey in range(nely):
        for ex in range(nelx):
            num = 0.0
            den = 0.0
            for iy in range(nely):
                for ix in range(nelx):
                    h = max(0.0, rmin - np.hypot(ex - ix, ey - iy))
                    num += h * x[iy, ix] * dc[iy, ix]
                    den += h
            out[ey, ex] = num / (x[ey, ex] * den)
    return out


def oc_scan_oracle(x, dc, params, n_grid=200_000):
    """Fine log-grid scan over the Lagrange multiplier."""
    lower = np.maximum(X_MIN, x - params.move)
    upper = np.minimum(1.0, x + params.move)
    best = None
    for lam in np.logspace(-9, 9, n_grid):
        xnew = np.clip(x * np.sqrt(-dc / lam), lower, upper)
        err = abs(xnew.mean() - params.volfrac)
        if best is None or err < best[0]:
            best = (err, xnew)
    return best


def oc_update_oracle(x, dc, params):
    """The OC step written with np.clip and ndarray.mean, bisection as in fem."""
    lower = np.maximum(X_MIN, x - params.move)
    upper = np.minimum(1.0, x + params.move)

    def volume(lmid):
        xnew = np.clip(x * np.sqrt(-dc / lmid), lower, upper)
        return xnew, float(xnew.mean())

    l1, l2 = 1e-9, 1e9
    if (params.volfrac > volume(l1)[1] + 1e-4
            or params.volfrac < volume(l2)[1] - 1e-4):
        raise ConstraintError("unreachable")
    while (l2 - l1) / (l1 + l2) > 1e-6:
        lmid = 0.5 * (l1 + l2)
        if volume(lmid)[1] > params.volfrac:
            l1 = lmid
        else:
            l2 = lmid
    xnew, vol = volume(0.5 * (l1 + l2))
    if abs(vol - params.volfrac) > 1e-4:
        raise ConstraintError("missed the volume")
    return xnew


def simp_full_domain_oracle(mesh, params):
    """The SIMP loop on the whole cantilever, whatever the parity of nely: the
    loop `run_simp` ran before it learned the half domain, written with the
    public solve, compliance, filter and OC calls and the sensitivities of
    `element_sensitivities`."""
    bc = BoundaryConditions.cantilever(mesh)
    density = DensityField.uniform(mesh, params.volfrac)
    history, changes, converged = [], [], False
    for _ in range(params.max_iters):
        u = assemble_and_solve(density, params.penal, mesh, bc)
        history.append(compliance(density, u, params.penal, mesh))
        dc = element_sensitivities(density.values, u, params.penal, mesh)
        new_density = oc_update(density, filter_sensitivities(density, dc, params.rmin, mesh),
                                params)
        change = float(np.abs(new_density.values - density.values).max())
        changes.append(change)
        density = new_density
        if change < params.change_tol:
            converged = True
            break
    return SolveResult(density=density, compliance_history=history, converged=converged,
                       change_history=changes)


# ---------------------------------------------------------------------------
# element stiffness

def test_stiffness_symmetry():
    k = element_stiffness()
    assert np.array_equal(k, k.T)


def test_stiffness_rigid_translation():
    k = element_stiffness()
    assert np.abs(k @ np.array([1, 0, 1, 0, 1, 0, 1, 0], float)).max() < 1e-14
    assert np.abs(k @ np.array([0, 1, 0, 1, 0, 1, 0, 1], float)).max() < 1e-14


def test_stiffness_matches_quadrature_oracle():
    k = element_stiffness()
    assert np.abs(k - ke_quadrature_oracle(POISSON_RATIO, YOUNG_MODULUS)).max() < 1e-12
    # frozen spot value for nu=0.3, E=1: (0.5 - 0.3/6) / (1 - 0.09)
    assert k[0, 0] == pytest.approx(0.4945054945054945, abs=1e-12)


def test_stiffness_positive_semidefinite():
    rng = np.random.default_rng(0)
    k = element_stiffness()
    for _ in range(50):
        v = rng.normal(size=8)
        assert v @ k @ v >= -1e-12


# ---------------------------------------------------------------------------
# assemble and solve

def test_solve_1x1_matches_dense_oracle():
    mesh = MeshSpec(1, 1)
    density = DensityField.uniform(mesh, 1.0)
    # clamp left edge, unit downward load at the free bottom-right corner node
    bc = BoundaryConditions(fixed_dofs=[0, 1, 2, 3], loads=[(7, -1.0)])
    u_oracle = solve_oracle(density.values, 3.0, mesh, bc)
    for solve in (assemble_and_solve, cg_oracle_solve):
        u = solve(density, 3.0, mesh, bc)
        assert np.abs(u - u_oracle).max() < 1e-9


def test_solve_matches_dense_oracle_random_density():
    rng = np.random.default_rng(3)
    mesh = MeshSpec(4, 3)
    density = DensityField(rng.uniform(0.2, 1.0, size=(3, 4)))
    bc = BoundaryConditions.cantilever(mesh)
    for solve in (assemble_and_solve, cg_oracle_solve):
        u = solve(density, 3.0, mesh, bc)
        u_oracle = solve_oracle(density.values, 3.0, mesh, bc)
        assert np.abs(u - u_oracle).max() < 1e-8 * max(1.0, np.abs(u_oracle).max())


def test_solve_zero_load_gives_zero_displacement():
    mesh = MeshSpec(3, 2)
    bc = BoundaryConditions(
        fixed_dofs=BoundaryConditions.cantilever(mesh).fixed_dofs, loads=[]
    )
    u = assemble_and_solve(DensityField.uniform(mesh, 0.5), 3.0, mesh, bc)
    assert np.array_equal(u, np.zeros(mesh.n_dofs))


def test_solve_linearity_in_load():
    mesh = MeshSpec(3, 3)
    density = DensityField.uniform(mesh, 0.7)
    bc1 = BoundaryConditions.cantilever(mesh)
    bc2 = BoundaryConditions(bc1.fixed_dofs, [(bc1.loads[0][0], -2.0)])
    u1 = assemble_and_solve(density, 3.0, mesh, bc1)
    u2 = assemble_and_solve(density, 3.0, mesh, bc2)
    assert np.allclose(2.0 * u1, u2, rtol=1e-10, atol=1e-12)


def test_solve_residual_contract():
    rng = np.random.default_rng(11)
    mesh = MeshSpec(6, 4)
    density = DensityField(rng.uniform(1e-3, 1.0, size=(4, 6)))
    bc = BoundaryConditions.cantilever(mesh)
    free = np.setdiff1d(np.arange(mesh.n_dofs), bc.fixed_dofs)
    K = dense_assembly_oracle(density.values, 3.0, mesh)[np.ix_(free, free)]
    f = bc.force_vector(mesh)[free]
    for solve in (assemble_and_solve, cg_oracle_solve):
        u = solve(density, 3.0, mesh, bc)
        rel = np.linalg.norm(K @ u[free] - f) / np.linalg.norm(f)
        assert rel <= 1e-8


@pytest.mark.parametrize("seed,contrast", [(0, True), (1, True), (0, False)])
def test_pcg_stops_on_the_true_residual(seed, contrast):
    # on random 0/1 designs at X_MIN the CG recurrence residual can sit
    # orders of magnitude below ||f - K u|| / ||f||; pcg either meets its
    # tolerance on the true residual or raises SolverError
    mesh = MeshSpec(60, 20)
    rng = np.random.default_rng(seed)
    x = (np.where(rng.random((20, 60)) < 0.5, 1.0, 1e-3) if contrast
         else rng.uniform(0.2, 1.0, size=(20, 60)))
    bc = BoundaryConditions.cantilever(mesh)
    free = np.setdiff1d(np.arange(mesh.n_dofs), bc.fixed_dofs)
    K = csr_matrix(dense_assembly_oracle(x, 3.0, mesh)[np.ix_(free, free)])
    f = bc.force_vector(mesh)[free]
    try:
        u = _pcg(K, f, PCG_TOL)
    except SolverError:
        assert contrast
        return
    assert np.linalg.norm(f - K @ u) <= PCG_TOL * np.linalg.norm(f)


def test_solve_detects_singular_system():
    mesh = MeshSpec(2, 2)
    # a single fixed DOF leaves rigid-body modes
    bc = BoundaryConditions(fixed_dofs=[0], loads=[(mesh.n_dofs - 1, -1.0)])
    with pytest.raises(SingularSystemError):
        assemble_and_solve(DensityField.uniform(mesh, 1.0), 3.0, mesh, bc)
    # a void top-right element leaves its corner node without stiffness, a
    # zero on K's diagonal that the CG reference rejects before it iterates
    # (whether CG breaks down on the rigid-body modes above depends on rounding)
    x = np.ones((2, 2))
    x[0, 1] = 0.0
    for solve in (assemble_and_solve, cg_oracle_solve):
        with pytest.raises(SingularSystemError):
            solve(DensityField(x), 3.0, mesh, BoundaryConditions.cantilever(mesh))


def test_non_finite_or_negative_density_is_parameter_error():
    # the solve and the compliance reject the same bad fields
    mesh = MeshSpec(12, 6)
    bc = BoundaryConditions.cantilever(mesh)
    u = np.zeros(mesh.n_dofs)
    for bad in (np.nan, np.inf, -np.inf, -0.1):
        x = np.full((6, 12), 0.5)
        x[3, 7] = bad
        density = DensityField(x)
        with pytest.raises(ParameterError):
            assemble_and_solve(density, 3.0, mesh, bc)
        with pytest.raises(ParameterError):
            compliance(density, u, 3.0, mesh)


def mbb_conditions(mesh):
    """Left-edge x-DOFs and the bottom-right y-DOF fixed, downward load at the top-left."""
    left_x = 2 * np.arange(mesh.nely + 1)
    bottom_right_y = 2 * (mesh.nelx * (mesh.nely + 1) + mesh.nely) + 1
    return BoundaryConditions(fixed_dofs=np.append(left_x, bottom_right_y), loads=[(1, -1.0)])


def test_banded_solve_noncontiguous_fixed_dofs_matches_oracle():
    rng = np.random.default_rng(17)
    mesh = MeshSpec(6, 4)
    x = rng.uniform(1e-3, 1.0, size=(4, 6))
    x[rng.random(size=x.shape) < 0.3] = 1e-3
    density = DensityField(x)
    bc = mbb_conditions(mesh)
    u = assemble_and_solve(density, 3.0, mesh, bc)
    u_oracle = solve_oracle(x, 3.0, mesh, bc)
    assert np.abs(u - u_oracle).max() < 1e-8 * max(1.0, np.abs(u_oracle).max())


def test_banded_plan_is_keyed_on_mesh_and_fixed_dofs():
    # alternating boundary conditions on one mesh must never reuse the other's plan
    rng = np.random.default_rng(19)
    mesh = MeshSpec(5, 3)
    density = DensityField(rng.uniform(0.1, 1.0, size=(3, 5)))
    cantilever = BoundaryConditions.cantilever(mesh)
    cantilever_up = BoundaryConditions(cantilever.fixed_dofs, [(cantilever.loads[0][0], 2.0)])
    mbb = mbb_conditions(mesh)
    for bc in (cantilever, mbb, cantilever_up, mbb, cantilever):
        u = assemble_and_solve(density, 3.0, mesh, bc)
        u_dense = solve_oracle(density.values, 3.0, mesh, bc)
        assert np.abs(u - u_dense).max() < 1e-10 * np.abs(u_dense).max()


def test_bc_validation():
    with pytest.raises(ParameterError, match="at least one DOF"):
        BoundaryConditions(fixed_dofs=[], loads=[(3, -1.0)])
    with pytest.raises(ParameterError):
        BoundaryConditions(fixed_dofs=[3], loads=[(3, -1.0)])
    # int64 truncated 0.5 and 1.7 to DOFs 0 and 1, read True and False as DOFs 1
    # and 0 and parsed "3"; NaN raised numpy's bare ValueError
    for bad in ([0.5, 1.7], [True, False], ["3"], [float("nan")], [1, None]):
        with pytest.raises(ParameterError, match="fixed_dofs"):
            BoundaryConditions(fixed_dofs=bad, loads=[(7, -1.0)])
    # a load that is no (dof, value) pair raised a bare TypeError or ValueError,
    # and "ab" was unpacked into DOF "a"
    for bad in ([5], [(7,)], [(7, -1.0, 0.0)], ["ab"], 5, None):
        with pytest.raises(ParameterError, match="loads"):
            BoundaryConditions(fixed_dofs=[0], loads=bad)
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64):
        bc = BoundaryConditions(fixed_dofs=np.array([3, 0, 3], dtype=dtype), loads=[(7, -1.0)])
        assert bc.fixed_dofs.dtype == np.int64 and bc.fixed_dofs.tolist() == [0, 3]
    # a uint64 DOF of 2**63 or more wrapped to a negative int64 DOF the caller never named
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ParameterError, match="fixed_dofs"):
            BoundaryConditions(fixed_dofs=np.array([0, big], dtype=np.uint64), loads=[(7, -1.0)])
    bc = BoundaryConditions(fixed_dofs=np.array([2**63 - 1], dtype=np.uint64), loads=[(7, -1.0)])
    assert bc.fixed_dofs.tolist() == [2**63 - 1]


def test_load_dof_must_be_an_int():
    # 9.0 failed in force_vector with numpy's bare IndexError, and True was
    # reported as a "load applied to fixed DOF True"
    for bad in (9.0, True, "3", None, -1):
        with pytest.raises(ParameterError, match="load DOF"):
            BoundaryConditions(fixed_dofs=[0, 1, 2, 3], loads=[(bad, -1.0)])
    bc = BoundaryConditions(fixed_dofs=[0, 1, 2, 3], loads=[(np.int64(9), -1.0)])
    assert bc.force_vector(MeshSpec(4, 3))[9] == -1.0


def test_fixed_dof_outside_the_mesh_is_dimension_error():
    # as for an out-of-range load: the solve may not drop the DOFs and solve without them
    mesh = MeshSpec(4, 2)
    cantilever = BoundaryConditions.cantilever(mesh)
    bc = BoundaryConditions(fixed_dofs=np.append(cantilever.fixed_dofs, [-3, 37]),
                            loads=cantilever.loads)
    with pytest.raises(DimensionError, match="-3, 37"):
        assemble_and_solve(DensityField.uniform(mesh, 0.5), 3.0, mesh, bc)


def test_cantilever_load_node_even_and_odd():
    even = BoundaryConditions.cantilever(MeshSpec(4, 4))
    # right edge starts at node 4*5=20; midpoint row 2 -> node 22, y DOF 45
    assert even.loads == [(45, -1.0)]
    odd = BoundaryConditions.cantilever(MeshSpec(4, 5))
    # right edge starts at node 4*6=24; row (5+1)//2=3 -> node 27, y DOF 55
    assert odd.loads == [(55, -1.0)]


# ---------------------------------------------------------------------------
# compliance and sensitivities

def test_compliance_zero_displacement():
    mesh = MeshSpec(2, 2)
    assert compliance(DensityField.uniform(mesh, 0.5), np.zeros(mesh.n_dofs), 3.0, mesh) == 0.0


def test_energies_and_compliance_of_a_rigid_body_motion_are_not_negative():
    # the energy of a rigid-body motion is 0, which rounding may push below it
    rng = np.random.default_rng(11)
    mesh = MeshSpec(6, 4)
    density = DensityField.uniform(mesh, 0.5)
    node = np.arange((mesh.nelx + 1) * (mesh.nely + 1))
    nx, ny = node // (mesh.nely + 1), node % (mesh.nely + 1)
    for _ in range(200):
        a, b, theta = rng.normal(size=3)
        u = np.empty(mesh.n_dofs)
        u[0::2], u[1::2] = a - theta * ny, b + theta * nx
        assert (_element_energies(u, mesh) >= 0.0).all()
        assert compliance(density, u, 3.0, mesh) >= 0.0


def test_compliance_element_sum_equals_utf():
    rng = np.random.default_rng(7)
    mesh = MeshSpec(4, 3)
    density = DensityField(rng.uniform(0.3, 1.0, size=(3, 4)))
    bc = BoundaryConditions.cantilever(mesh)
    u = assemble_and_solve(density, 3.0, mesh, bc)
    c = compliance(density, u, 3.0, mesh)
    utf = float(u @ bc.force_vector(mesh))
    assert c == pytest.approx(utf, rel=1e-8)


def test_compliance_uniform_half_density_matches_oracle():
    mesh = MeshSpec(2, 2)
    density = DensityField.uniform(mesh, 0.5)
    bc = BoundaryConditions.cantilever(mesh)
    u_oracle = solve_oracle(density.values, 3.0, mesh, bc)
    ke = ke_quadrature_oracle(POISSON_RATIO, YOUNG_MODULUS)
    c_oracle = 0.0
    for ey in range(mesh.nely):
        for ex in range(mesh.nelx):
            n1 = (mesh.nely + 1) * ex + ey
            n2 = (mesh.nely + 1) * (ex + 1) + ey
            edof = [2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
                    2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3]
            ue = u_oracle[edof]
            c_oracle += 0.5**3 * ue @ ke @ ue
    u = cg_oracle_solve(density, 3.0, mesh, bc)
    assert compliance(density, u, 3.0, mesh) == pytest.approx(c_oracle, rel=1e-8)


def test_compliance_shape_mismatch():
    mesh = MeshSpec(3, 2)
    with pytest.raises(DimensionError):
        compliance(DensityField.uniform(mesh, 0.5), np.zeros(5), 3.0, mesh)
    with pytest.raises(DimensionError):
        compliance(DensityField(np.ones((4, 4))), np.zeros(mesh.n_dofs), 3.0, mesh)


def test_sensitivities_power_rule_p1():
    rng = np.random.default_rng(5)
    mesh = MeshSpec(3, 3)
    density = DensityField(rng.uniform(0.2, 1.0, size=(3, 3)))
    bc = BoundaryConditions.cantilever(mesh)
    u = assemble_and_solve(density, 1.0, mesh, bc)
    dc = element_sensitivities(density.values, u, 1.0, mesh)
    # p=1: dc_e = -u_e^T k0 u_e, independent of x_e
    ke = ke_quadrature_oracle(POISSON_RATIO, YOUNG_MODULUS)
    for ey in range(3):
        for ex in range(3):
            n1 = (mesh.nely + 1) * ex + ey
            n2 = (mesh.nely + 1) * (ex + 1) + ey
            edof = [2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
                    2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3]
            ue = u[edof]
            assert dc[ey, ex] == pytest.approx(-(ue @ ke @ ue), rel=1e-10, abs=1e-14)


def test_sensitivities_zero_displacement():
    mesh = MeshSpec(3, 2)
    dc = element_sensitivities(np.full((2, 3), 0.5), np.zeros(mesh.n_dofs), 3.0, mesh)
    assert np.array_equal(dc, np.zeros((2, 3)))


def test_sensitivities_nonpositive():
    rng = np.random.default_rng(13)
    mesh = MeshSpec(5, 4)
    density = DensityField(rng.uniform(1e-3, 1.0, size=(4, 5)))
    bc = BoundaryConditions.cantilever(mesh)
    u = assemble_and_solve(density, 3.0, mesh, bc)
    assert np.all(element_sensitivities(density.values, u, 3.0, mesh) <= 0.0)


def finite_difference_sensitivities(x, penal, mesh, bc, h=1e-6):
    """Central differences of compliance, dense solves for accuracy."""
    dc = np.zeros_like(x)
    for ey in range(mesh.nely):
        for ex in range(mesh.nelx):
            for sign in (+1, -1):
                xp = x.copy()
                xp[ey, ex] += sign * h
                u = solve_oracle(xp, penal, mesh, bc)
                f = np.zeros(mesh.n_dofs)
                for dof, val in bc.loads:
                    f[dof] += val
                dc[ey, ex] += sign * (u @ f)
            dc[ey, ex] /= 2 * h
    return dc


def test_sensitivities_match_finite_differences_6x4():
    mesh = MeshSpec(6, 4)
    bc = BoundaryConditions.cantilever(mesh)
    rng = np.random.default_rng(42)
    for trial in range(5):
        x = rng.uniform(0.15, 0.95, size=(4, 6))
        density = DensityField(x)
        u = assemble_and_solve(density, 3.0, mesh, bc)
        dc = element_sensitivities(x, u, 3.0, mesh)
        dc_fd = finite_difference_sensitivities(x, 3.0, mesh, bc)
        rel = np.abs(dc - dc_fd) / np.maximum(np.abs(dc_fd), 1e-12)
        assert rel.max() < 1e-4, f"trial {trial}: max rel err {rel.max():.2e}"


# ---------------------------------------------------------------------------
# sensitivity filter

def test_filter_rmin_half_is_identity():
    rng = np.random.default_rng(1)
    mesh = MeshSpec(4, 3)
    x = rng.uniform(0.2, 1.0, size=(3, 4))
    dc = -rng.uniform(0.0, 2.0, size=(3, 4))
    out = filter_sensitivities(DensityField(x), dc, 0.5, mesh)
    assert np.allclose(out, dc, rtol=1e-12, atol=1e-14)


def test_filter_uniform_inputs_unchanged():
    mesh = MeshSpec(5, 4)
    x = np.full((4, 5), 0.6)
    dc = np.full((4, 5), -1.7)
    out = filter_sensitivities(DensityField(x), dc, 2.0, mesh)
    assert np.allclose(out, dc, rtol=1e-12)


def test_filter_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    mesh = MeshSpec(3, 3)
    x = rng.uniform(0.1, 1.0, size=(3, 3))
    dc = -rng.uniform(0.1, 3.0, size=(3, 3))
    out = filter_sensitivities(DensityField(x), dc, 1.5, mesh)
    assert np.abs(out - filter_oracle(x, dc, 1.5)).max() < 1e-12


def test_filter_matches_bruteforce_larger_radius():
    rng = np.random.default_rng(10)
    mesh = MeshSpec(6, 5)
    x = rng.uniform(0.1, 1.0, size=(5, 6))
    dc = -rng.uniform(0.1, 3.0, size=(5, 6))
    for rmin in (1.5, 2.4, 3.0):
        out = filter_sensitivities(DensityField(x), dc, rmin, mesh)
        assert np.abs(out - filter_oracle(x, dc, rmin)).max() < 1e-12


def test_filter_matrix_is_cached_per_shape_and_radius_and_read_only():
    rng = np.random.default_rng(11)
    for _ in range(2):
        for shape in ((7, 12), (9, 9)):
            for rmin in (1.5, 2.5, 3.5):
                x = rng.uniform(0.1, 1.0, size=shape)
                dc = -rng.uniform(0.1, 3.0, size=shape)
                out = filter_sensitivities(DensityField(x), dc, rmin, MeshSpec(shape[1], shape[0]))
                assert np.abs(out - filter_oracle(x, dc, rmin)).max() < 1e-12
                H, hsum = _filter_matrix(shape, rmin)
                assert H.shape == (x.size, x.size) and hsum.shape == shape
                for a in (H.data, hsum):
                    with pytest.raises(ValueError):
                        a[0] = 1.0


# ---------------------------------------------------------------------------
# OC update

def test_oc_fixed_point_uniform():
    params = SimpParams(volfrac=0.4)
    x = np.full((3, 4), 0.4)
    dc = np.full((3, 4), -1.3)
    out = oc_update(DensityField(x), dc, params)
    assert np.allclose(out.values, x, atol=1e-6)


def test_oc_move_limit():
    rng = np.random.default_rng(2)
    params = SimpParams(volfrac=0.5, move=0.2)
    x = rng.uniform(0.3, 0.7, size=(4, 4))
    x *= 0.5 / x.mean()
    dc = -rng.uniform(0.01, 5.0, size=(4, 4))
    out = oc_update(DensityField(x), dc, params)
    assert np.all(np.abs(out.values - x) <= params.move + 1e-12)


def test_oc_volume_matches_scan_oracle():
    rng = np.random.default_rng(4)
    params = SimpParams(volfrac=0.5)
    x = rng.uniform(0.35, 0.65, size=(4, 4))
    dc = -rng.uniform(0.1, 4.0, size=(4, 4))
    out = oc_update(DensityField(x), dc, params)
    assert abs(out.values.mean() - 0.5) <= 1e-4
    err, x_scan = oc_scan_oracle(x, dc, params)
    assert err <= 1e-4
    assert np.abs(out.values - x_scan).max() < 1e-2


def test_oc_infeasible_volume_raises():
    params = SimpParams(volfrac=0.9, move=0.05)
    x = np.full((3, 3), 0.2)  # cannot climb from 0.2 to 0.9 with move 0.05
    dc = np.full((3, 3), -1.0)
    with pytest.raises(ConstraintError):
        oc_update(DensityField(x), dc, params)


def test_oc_rejects_positive_sensitivities():
    params = SimpParams(volfrac=0.5)
    with pytest.raises(ParameterError):
        oc_update(DensityField(np.full((2, 2), 0.5)), np.full((2, 2), 1.0), params)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_oc_rejects_non_finite_sensitivities(bad):
    params = SimpParams(volfrac=0.5)
    dc = np.full((2, 3), -1.0)
    dc[0, 0] = bad
    with pytest.raises(ParameterError):
        oc_update(DensityField(np.full((2, 3), 0.5)), dc, params)


def test_oc_nan_volume_is_constraint_error():
    # a NaN density makes every volume NaN, which no comparison rejects
    x = np.full((2, 3), 0.5)
    x[1, 2] = np.nan
    with pytest.raises(ConstraintError):
        oc_update(DensityField(x), np.full((2, 3), -1.0), SimpParams(volfrac=0.5))


def assert_oc_matches_oracle(x, dc, params):
    try:
        expected = oc_update_oracle(x, dc, params)
        if np.isnan(expected.mean()):   # `oc_update` refuses the NaN volume the oracle's > passes
            raise ConstraintError("NaN volume")
    except ConstraintError:
        with pytest.raises(ConstraintError):
            oc_update(DensityField(x), dc, params)
        return
    assert np.array_equal(oc_update(DensityField(x), dc, params).values, expected)


@settings(max_examples=120, deadline=None)
@given(
    nely=st.integers(1, 40),
    nelx=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    zero_share=st.floats(0.0, 0.5),
    bound_share=st.floats(0.0, 0.9),
    reach=st.floats(-0.1, 1.1),
    move=st.floats(0.01, 0.5),
)
def test_oc_matches_clip_mean_oracle_bit_for_bit(nely, nelx, seed, zero_share, bound_share,
                                                 reach, move):
    rng = np.random.default_rng(seed)
    x = rng.uniform(X_MIN, 1.0, size=(nely, nelx))
    # densities at a bound, as in a converged design: their moves saturate together
    at_bound = rng.random((nely, nelx)) < bound_share
    x[at_bound] = rng.choice([X_MIN, 1.0], size=int(at_bound.sum()))
    dc = -rng.exponential(rng.uniform(1e-3, 10.0), size=(nely, nelx))
    dc[rng.random((nely, nelx)) < zero_share] = 0.0
    # the target volume at `reach` between the move limits' extremes, and at
    # times outside them, so that both outcomes of the step are compared
    lowest = np.maximum(X_MIN, x - move).mean()
    highest = np.minimum(1.0, x + move).mean()
    volfrac = float(np.clip(lowest + reach * (highest - lowest), 0.01, 1.0))
    assert_oc_matches_oracle(x, dc, SimpParams(volfrac=volfrac, move=move))


def test_oc_matches_oracle_on_simp_iterates(monkeypatch):
    calls = []

    def checked(density, dc, params):
        assert_oc_matches_oracle(density.values, dc, params)
        calls.append(1)
        return oc_update(density, dc, params)

    monkeypatch.setattr(fem, "oc_update", checked)
    for nelx, nely, volfrac, rmin, max_iters in (
            (60, 20, 0.5, 1.5, 12),     # the sweep workload's mesh
            (16, 6, 0.4, 1.5, 200),     # a whole run, to its converged design
            (32, 32, 0.35, 2.5, 12)):   # the pipeline workload's mesh
        calls.clear()
        result = run_simp(MeshSpec(nelx, nely),
                          SimpParams(volfrac=volfrac, penal=3.0, rmin=rmin, max_iters=max_iters))
        assert len(calls) == result.iterations
        assert result.converged if max_iters == 200 else len(calls) == max_iters


def oc_arrays(x, dc, move):
    """The arrays `oc_update` evaluates its volume from, in `fem._volume`'s argument order."""
    return x, np.negative(dc), np.maximum(X_MIN, x - move), np.minimum(1.0, x + move)


def test_oc_all_zero_sensitivities_give_the_lower_bounds():
    # x * sqrt(0 / lambda) is 0 for every multiplier: the volume is the lower
    # bounds' mean at both ends, which the target reaches within 1e-4
    x = np.full((2, 3), 0.5)
    out = oc_update(DensityField(x), np.zeros((2, 3)), SimpParams(volfrac=0.3))
    assert np.array_equal(out.values, np.full((2, 3), 0.3))
    assert_oc_matches_oracle(x, np.zeros((2, 3)), SimpParams(volfrac=0.3))
    assert_oc_matches_oracle(np.full((4, 4), 0.5), np.zeros((4, 4)), SimpParams(volfrac=0.30005))
    with pytest.raises(ConstraintError):
        oc_update(DensityField(x), np.zeros((2, 3)), SimpParams(volfrac=0.5))


def test_oc_nan_volumes_decide_no_step():
    # a NaN density makes every volume NaN. x = 0 under a sensitivity whose
    # ratio to a multiplier below about 0.56 overflows gives NaN (0 * inf)
    # there only, where "volume > volfrac" is False though it is True further
    # up: the order is broken. With a NaN volume at either end, every midpoint
    # is evaluated as in the plain bisection
    rng = np.random.default_rng(30)
    x = rng.uniform(0.2, 0.8, size=(6, 10))
    dc = -rng.uniform(0.1, 2.0, size=(6, 10))
    nan_x = x.copy()
    nan_x[3, 4] = np.nan
    with pytest.raises(ConstraintError):
        oc_update(DensityField(nan_x), dc, SimpParams(volfrac=0.5))
    zero_x, huge_dc = x.copy(), dc.copy()
    zero_x[0, :3], huge_dc[0, :3] = 0.0, -1e308
    # an infinite density under a subnormal sensitivity gives NaN (inf * 0
    # after 5e-320 / lambda underflows) for every multiplier above about 10
    inf_x, tiny_dc = x.copy(), dc.copy()
    inf_x[5, 9], tiny_dc[5, 9] = np.inf, -5e-320
    with np.errstate(over="ignore", invalid="ignore"):   # the overflow and inf * 0
        for x_, dc_, nan_end in ((zero_x, huge_dc, 1e-9), (inf_x, tiny_dc, 1e9)):
            arrays = oc_arrays(x_, dc_, 0.2)
            assert np.isnan(fem._volume(nan_end, *arrays, np.empty_like(x)))
            assert not np.isnan(fem._volume(1.0, *arrays, np.empty_like(x)))
            for volfrac in (0.3, 0.45, 0.5, 0.55, 0.58, 0.7):
                assert_oc_matches_oracle(x_, dc_, SimpParams(volfrac=volfrac))


@pytest.mark.parametrize("volfrac", [0.5, 0.49, 0.51, 0.40005, 0.59995, 0.45, 0.55])
def test_oc_flat_volume_plateau_from_saturated_moves(volfrac):
    # half the elements want to grow a millionfold more than the rest: for
    # lambda in about [2.8, 5e5] every element sits at its move limit (0.3 or
    # 0.7), so the volume is flat at 0.5 there and no Newton step has a slope
    x = np.full((4, 6), 0.5)
    dc = np.where(np.arange(24).reshape(4, 6) % 2, -1.0, -1e6)
    assert_oc_matches_oracle(x, dc, SimpParams(volfrac=volfrac, move=0.2))
    # plateaus at three levels, from three groups of sensitivities
    dc3 = np.where(np.arange(24).reshape(4, 6) % 3 == 0, -1e-4, dc)
    assert_oc_matches_oracle(x, dc3, SimpParams(volfrac=volfrac, move=0.2))


@pytest.mark.parametrize("end", [1e-9, 1e9])
def test_oc_volfrac_exactly_at_an_end_volume(end):
    rng = np.random.default_rng(31)
    x = rng.uniform(0.2, 0.8, size=(5, 7))
    dc = -rng.uniform(1e-3, 5.0, size=(5, 7))
    at_end = fem._volume(end, *oc_arrays(x, dc, 0.2), np.empty_like(x))
    for volfrac in (at_end, np.nextafter(at_end, 0.0), np.nextafter(at_end, 1.0)):
        assert_oc_matches_oracle(x, dc, SimpParams(volfrac=float(volfrac), move=0.2))


@pytest.mark.parametrize("seed", range(4))
def test_oc_volume_is_non_increasing_in_the_multiplier(seed):
    # the premise that lets oc_update decide a bisection step unevaluated:
    # checked on a log grid and on a run of adjacent floats around the
    # multiplier where the volume crosses 0.45
    rng = np.random.default_rng(seed)
    x = rng.uniform(X_MIN, 1.0, size=(7, 9))
    x[rng.random((7, 9)) < 0.3] = X_MIN
    dc = -rng.exponential(rng.uniform(1e-3, 10.0), size=(7, 9))
    dc[rng.random((7, 9)) < 0.1] = 0.0
    arrays, out = oc_arrays(x, dc, 0.2), np.empty_like(x)
    lo, hi = 1e-9, 1e9
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fem._volume(mid, *arrays, out) > 0.45 else (lo, mid)
    run = [lo * (1.0 - 1e-13)]
    while run[-1] < hi * (1.0 + 1e-13):
        run.append(np.nextafter(run[-1], np.inf))
    for lams in (run, sorted([*np.logspace(-9, 9, 2001), *run])):
        vols = [fem._volume(lam, *arrays, out) for lam in lams]
        assert all(a >= b for a, b in zip(vols, vols[1:]))
        assert len(set(vols)) > 10   # the run of adjacent floats moves the volume too


def test_oc_evaluates_the_volume_about_ten_times_per_update(monkeypatch):
    # the plain bisection evaluates 52 volumes per update; the bracket leaves
    # all but one or two of its midpoints decided
    volume, counts = fem._volume, []

    def counted(*args):
        counts[-1] += 1
        return volume(*args)

    def update(density, dc, params):
        counts.append(0)
        return oc_update(density, dc, params)

    monkeypatch.setattr(fem, "_volume", counted)
    monkeypatch.setattr(fem, "oc_update", update)
    for volfrac in (0.4, 0.6):
        run_simp(MeshSpec(60, 20), SimpParams(volfrac=volfrac, rmin=1.5, max_iters=40))
    assert len(counts) == 80
    assert np.median(counts) <= 12 and max(counts) <= 16, sorted(counts)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    volfrac=st.floats(0.2, 0.8),
    move=st.floats(0.05, 0.3),
)
def test_oc_invariants_random(seed, volfrac, move):
    rng = np.random.default_rng(seed)
    params = SimpParams(volfrac=volfrac, move=move)
    x = np.clip(rng.uniform(volfrac - move / 2, volfrac + move / 2, size=(4, 5)),
                X_MIN, 1.0)
    dc = -rng.uniform(1e-3, 10.0, size=(4, 5))
    out = oc_update(DensityField(x), dc, params)
    assert abs(out.values.mean() - volfrac) <= 1e-4
    assert np.all(out.values >= X_MIN - 1e-12)
    assert np.all(out.values <= 1.0 + 1e-12)
    assert np.all(np.abs(out.values - x) <= move + 1e-12)


# ---------------------------------------------------------------------------
# full SIMP loop

def test_run_simp_cantilever_small():
    mesh = MeshSpec(12, 6)
    params = SimpParams(volfrac=0.5, penal=3.0, rmin=1.5)
    result = run_simp(mesh, params)
    assert result.converged
    assert abs(result.density.values.mean() - 0.5) <= 1e-3
    assert np.all(result.density.values >= X_MIN - 1e-12)
    assert np.all(result.density.values <= 1.0 + 1e-12)
    assert len(result.compliance_history) == result.iterations
    assert len(result.change_history) == result.iterations
    assert (result.change_history[-1] < params.change_tol) == result.converged
    assert all(c >= params.change_tol for c in result.change_history[:-1])
    # stiffer than the uniform start
    assert result.compliance_history[-1] < result.compliance_history[0]


def test_run_simp_banded_matches_pcg(monkeypatch):
    mesh = MeshSpec(30, 10)
    params = SimpParams(volfrac=0.5, penal=3.0, rmin=1.5)
    banded = run_simp(mesh, params)
    monkeypatch.setattr(fem, "assemble_and_solve", cg_oracle_solve)
    pcg = run_simp(mesh, params)
    assert banded.iterations == pcg.iterations
    assert banded.converged == pcg.converged
    assert np.allclose(banded.compliance_history, pcg.compliance_history, rtol=1e-6, atol=0.0)


def test_run_simp_p1_descent():
    mesh = MeshSpec(8, 5)
    params = SimpParams(volfrac=0.5, penal=1.0, rmin=0.5)
    result = run_simp(mesh, params)
    hist = result.compliance_history
    assert hist[-1] <= hist[0]
    for a, b in zip(hist[1:], hist[2:]):
        assert b <= a * (1 + 1e-9)


def test_run_simp_full_material():
    mesh = MeshSpec(6, 4)
    params = SimpParams(volfrac=1.0, penal=3.0, rmin=1.5)
    result = run_simp(mesh, params)
    assert result.converged
    assert result.iterations <= 2
    assert np.allclose(result.density.values, 1.0)


def test_run_simp_nonconvergence_flag():
    mesh = MeshSpec(10, 5)
    params = SimpParams(volfrac=0.5, penal=3.0, rmin=1.5, max_iters=2, change_tol=1e-9)
    result = run_simp(mesh, params)
    assert not result.converged
    assert result.iterations == 2


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
# bench/workloads.py's COMPLIANCE_RTOL: the benchmark's check on each design
REFERENCE_RTOL = 1e-6
TOY_DESIGNS = json.loads(REFERENCE.read_text(encoding="utf-8"))["toy"]["designs"]


@pytest.mark.parametrize("key", sorted(TOY_DESIGNS))
def test_run_simp_matches_bench_reference(key):
    """A change to SIMP numerics fails here before it fails the benchmark."""
    ref = TOY_DESIGNS[key]
    m = re.fullmatch(r"(\d+)x(\d+)/v([\d.]+)/p([\d.]+)/r([\d.]+)", key)
    result = run_simp(MeshSpec(int(m[1]), int(m[2])),
                      SimpParams(volfrac=float(m[3]), penal=float(m[4]), rmin=float(m[5])))
    assert result.iterations == ref["iterations"]
    assert result.converged == ref["converged"]
    assert result.compliance_history[-1] == pytest.approx(ref["compliance"],
                                                          rel=REFERENCE_RTOL, abs=0.0)


# Measured over the 4 meshes x volfrac (0.3, 0.5, 0.7) x rmin (1.2, 1.5, 2.5)
# below, 1 BLAS thread: worst compliance gap 7.7e-12 relative; worst density
# gap 3.9e-6 and worst change gap 9.8e-8, both at 30x10/v0.3/r1.2, whose 162
# iterations amplify the rounding (every other case: density <= 2.8e-9).
HALF_DOMAIN_COMPLIANCE_RTOL = 1e-10
HALF_DOMAIN_DENSITY_ATOL = 1e-5
HALF_DOMAIN_CHANGE_ATOL = 1e-6


@pytest.mark.parametrize("nelx,nely", [(12, 6), (20, 10), (30, 10), (16, 4)])
def test_run_simp_half_domain_matches_full_domain_oracle(nelx, nely):
    mesh = MeshSpec(nelx, nely)
    for volfrac in (0.3, 0.5, 0.7):
        for rmin in (1.2, 1.5, 2.5):
            params = SimpParams(volfrac=volfrac, rmin=rmin)
            half, full = run_simp(mesh, params), simp_full_domain_oracle(mesh, params)
            assert (half.iterations, half.converged) == (full.iterations, full.converged)
            x = half.density.values
            assert x.shape == (nely, nelx)
            assert np.array_equal(x, x[::-1])
            np.testing.assert_allclose(half.compliance_history, full.compliance_history,
                                       rtol=HALF_DOMAIN_COMPLIANCE_RTOL, atol=0.0)
            np.testing.assert_allclose(x, full.density.values,
                                       rtol=0.0, atol=HALF_DOMAIN_DENSITY_ATOL)
            np.testing.assert_allclose(half.change_history, full.change_history,
                                       rtol=0.0, atol=HALF_DOMAIN_CHANGE_ATOL)


@pytest.mark.parametrize("nelx,nely", [(8, 5), (10, 5), (9, 7)])
def test_run_simp_odd_nely_is_the_full_domain_loop_bit_for_bit(nelx, nely):
    mesh = MeshSpec(nelx, nely)
    for volfrac in (0.4, 0.6):
        params = SimpParams(volfrac=volfrac)
        ours, oracle = run_simp(mesh, params), simp_full_domain_oracle(mesh, params)
        assert (ours.iterations, ours.converged) == (oracle.iterations, oracle.converged)
        assert np.array_equal(ours.density.values, oracle.density.values)
        assert ours.compliance_history == oracle.compliance_history
        assert ours.change_history == oracle.change_history


@pytest.mark.parametrize("nelx,nely", [(12, 6), (10, 5)])
def test_run_simp_calls_each_timed_entry_point_once_per_iteration(monkeypatch, nelx, nely):
    # bench/ times an iteration from one fem:assemble_and_solve span to the
    # next and the filter by fem:filter_sensitivities spans; a loop that
    # bypassed either module-level name would leave those metrics empty
    calls = {"assemble_and_solve": 0, "filter_sensitivities": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fem, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fem, name, counted)
    result = run_simp(MeshSpec(nelx, nely), SimpParams(volfrac=0.5))
    assert result.iterations > 1
    assert calls == {name: result.iterations for name in calls}


def test_simp_params_max_iters_must_be_an_int():
    for bad in (2.5, 2.0, np.float64(3), "3", None, True):
        with pytest.raises(ParameterError, match="max_iters"):
            SimpParams(volfrac=0.5, max_iters=bad)
    result = run_simp(MeshSpec(6, 4), SimpParams(volfrac=0.5, max_iters=np.int64(2),
                                                change_tol=1e-9))
    assert result.iterations == 2


def test_simp_params_need_at_least_one_iteration():
    for max_iters in (0, -1):
        with pytest.raises(ParameterError):
            SimpParams(volfrac=0.5, max_iters=max_iters)
    result = run_simp(MeshSpec(6, 4), SimpParams(volfrac=0.5, max_iters=1))
    assert result.iterations == 1
    assert len(result.compliance_history) == 1


def test_non_finite_fem_inputs_are_parameter_error():
    # NaN fails every comparison and inf passes the one-sided ones, so each
    # must be rejected up front and not by numpy or scipy deep in the loop
    for field in ("volfrac", "penal", "rmin", "move", "change_tol", "max_iters"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match=field):
                SimpParams(**{"volfrac": 0.5, field: bad})
    mesh = MeshSpec(4, 3)
    density = DensityField.uniform(mesh, 0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            filter_sensitivities(density, np.full((3, 4), -1.0), bad, mesh)
    cantilever = BoundaryConditions.cantilever(mesh)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            BoundaryConditions(cantilever.fixed_dofs, [(cantilever.loads[0][0], bad)])
    # a string compared with a bound raised a bare TypeError, and True passed as 1.0
    for bad in ("0.5", None, True, 1 + 0j):
        for field in ("volfrac", "penal", "rmin", "move", "change_tol"):
            with pytest.raises(ParameterError, match=field):
                SimpParams(**{"volfrac": 0.5, field: bad})
        with pytest.raises(ParameterError, match="rmin"):
            filter_sensitivities(density, np.full((3, 4), -1.0), bad, mesh)
        with pytest.raises(ParameterError, match="load"):
            BoundaryConditions(cantilever.fixed_dofs, [(cantilever.loads[0][0], bad)])
    # an int or a numpy float is the number it equals
    mesh = MeshSpec(6, 4)
    plain = run_simp(mesh, SimpParams(volfrac=0.5, penal=3.0, rmin=1.5, max_iters=5))
    for over in (dict(penal=3), dict(rmin=np.float32(1.5)), dict(volfrac=np.float64(0.5))):
        result = run_simp(mesh, SimpParams(**{"volfrac": 0.5, "max_iters": 5, **over}))
        assert np.array_equal(result.density.values, plain.density.values), over
        assert result.compliance_history == plain.compliance_history, over
        assert result.change_history == plain.change_history, over


def test_mesh_spec_needs_int_sizes_of_at_least_one():
    assert MeshSpec(np.int64(4), np.int32(3)).n_dofs == MeshSpec(4, 3).n_dofs
    # operator.index(True) is 1: the rule refuses a bool itself
    for bad in (np.nan, np.inf, 3.0, "3", None, 0, -2, True, False):
        for nelx, nely in ((bad, 3), (3, bad)):
            with pytest.raises(ParameterError):
                MeshSpec(nelx, nely)


def test_direct_fem_calls_reject_a_bad_penal():
    # the checks of SimpParams, for callers that pass penal without one
    mesh = MeshSpec(4, 3)
    density = DensityField.uniform(mesh, 0.5)
    bc = BoundaryConditions.cantilever(mesh)
    u = assemble_and_solve(density, 3.0, mesh, bc)
    for bad in (np.nan, np.inf, 0.5, "0.5", None, True, 1 + 0j):
        with pytest.raises(ParameterError, match="penal"):
            assemble_and_solve(density, bad, mesh, bc)
        with pytest.raises(ParameterError, match="penal"):
            compliance(density, u, bad, mesh)
