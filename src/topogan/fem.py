"""2D plane-stress FEM and SIMP compliance minimization on a structured quad mesh.

Conventions: unit square bilinear elements, E(x_e) = x_e^p * E0, node ids run
column-major with y down (node = x*(nely+1) + y), density arrays are
(nely, nelx) with row 0 at the top.

The default solve follows top88 (Andreassen et al. 2011): the index vectors
of the assembly are built once per mesh and fixed-DOF set, and K(free, free)
is assembled straight into LAPACK upper band storage and solved by a banded
Cholesky factorization. Column-major node numbering bounds the half-bandwidth
of the reduced matrix by 2*nely + 5 whatever the fixed DOFs. Jacobi-PCG
('pcg') and a dense LU solve ('dense') assemble a sparse matrix and stay as
the oracles the tests compare against.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse import coo_matrix
from scipy.signal import convolve2d

from .exceptions import (
    ConstraintError,
    DimensionError,
    ParameterError,
    SingularSystemError,
    SolverError,
)

PCG_TOL = 1e-8


@dataclass(frozen=True)
class MeshSpec:
    """Structured rectangular mesh of unit square elements."""

    nelx: int
    nely: int
    young_modulus: float = 1.0
    poisson_ratio: float = 0.3

    def __post_init__(self):
        if self.nelx < 1 or self.nely < 1:
            raise ParameterError(f"mesh must have nelx,nely >= 1, got {self.nelx}x{self.nely}")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise ParameterError(f"poisson ratio must be in [0, 0.5), got {self.poisson_ratio}")
        if self.young_modulus <= 0.0:
            raise ParameterError(f"young modulus must be positive, got {self.young_modulus}")

    @property
    def n_elements(self) -> int:
        return self.nelx * self.nely

    @property
    def n_dofs(self) -> int:
        return 2 * (self.nelx + 1) * (self.nely + 1)


@dataclass(frozen=True)
class SimpParams:
    """Inputs of the penalized compliance minimization."""

    volfrac: float
    penal: float = 3.0
    rmin: float = 1.5
    x_min: float = 1e-3
    move: float = 0.2
    change_tol: float = 0.01
    max_iters: int = 200

    def __post_init__(self):
        if not (0.0 < self.x_min <= self.volfrac <= 1.0):
            raise ParameterError(
                f"need 0 < x_min <= volfrac <= 1, got x_min={self.x_min}, volfrac={self.volfrac}"
            )
        if self.penal < 1.0:
            raise ParameterError(f"penal must be >= 1, got {self.penal}")
        if self.rmin <= 0.0:
            raise ParameterError(f"rmin must be positive, got {self.rmin}")
        if self.move <= 0.0:
            raise ParameterError(f"move limit must be positive, got {self.move}")


@dataclass
class DensityField:
    """Per-element densities, shape (nely, nelx), row 0 = top."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"density field must be 2D, got shape {self.values.shape}")

    @property
    def volume_fraction(self) -> float:
        return float(self.values.mean())

    @staticmethod
    def uniform(mesh: MeshSpec, value: float) -> "DensityField":
        return DensityField(np.full((mesh.nely, mesh.nelx), value, dtype=np.float64))


@dataclass
class BoundaryConditions:
    """Zero-displacement DOFs plus point loads as (dof index, force) pairs."""

    fixed_dofs: np.ndarray
    loads: list[tuple[int, float]]

    def __post_init__(self):
        self.fixed_dofs = np.unique(np.asarray(self.fixed_dofs, dtype=np.int64))
        if self.fixed_dofs.size == 0:
            raise ParameterError("at least one DOF must be fixed")
        fixed = set(self.fixed_dofs.tolist())
        for dof, _ in self.loads:
            if dof in fixed:
                raise ParameterError(f"load applied to fixed DOF {dof}")

    @staticmethod
    def cantilever(mesh: MeshSpec, load: float = -1.0) -> "BoundaryConditions":
        """Left edge clamped, point load at the vertical midpoint of the right edge.

        For odd nely the load node is row index (nely+1)//2 of the right edge.
        """
        left_nodes = np.arange(mesh.nely + 1)  # x = 0 column
        fixed = np.concatenate([2 * left_nodes, 2 * left_nodes + 1])
        load_node = mesh.nelx * (mesh.nely + 1) + (mesh.nely + 1) // 2
        return BoundaryConditions(fixed_dofs=fixed, loads=[(2 * load_node + 1, load)])

    def force_vector(self, mesh: MeshSpec) -> np.ndarray:
        f = np.zeros(mesh.n_dofs)
        for dof, value in self.loads:
            if not (0 <= dof < mesh.n_dofs):
                raise DimensionError(f"load DOF {dof} outside mesh with {mesh.n_dofs} DOFs")
            f[dof] += value
        return f


@dataclass
class SolveResult:
    """Outcome of `run_simp`; both histories hold one entry per iteration.

    `change_history[i]` is the max elementwise density change of iteration i.
    """

    density: DensityField
    compliance_history: list[float]
    iterations: int
    converged: bool
    change_history: list[float]


def element_stiffness(nu: float = 0.3, E: float = 1.0) -> np.ndarray:
    """8x8 stiffness of a unit bilinear quad, plane stress (exact integration)."""
    if not (0.0 <= nu < 0.5):
        raise ParameterError(f"poisson ratio must be in [0, 0.5), got {nu}")
    if E <= 0.0:
        raise ParameterError(f"young modulus must be positive, got {E}")
    k = np.array([
        0.5 - nu / 6.0, 0.125 + nu / 8.0, -0.25 - nu / 12.0, -0.125 + 3.0 * nu / 8.0,
        -0.25 + nu / 12.0, -0.125 - nu / 8.0, nu / 6.0, 0.125 - 3.0 * nu / 8.0,
    ])
    idx = np.array([
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0],
    ])
    return (E / (1.0 - nu**2)) * k[idx]


def element_dof_map(mesh: MeshSpec) -> np.ndarray:
    """(n_elements, 8) global DOF indices per element, element order row-major."""
    ex, ey = np.meshgrid(np.arange(mesh.nelx), np.arange(mesh.nely))
    ex, ey = ex.ravel(), ey.ravel()
    n1 = (mesh.nely + 1) * ex + ey           # upper-left node
    n2 = (mesh.nely + 1) * (ex + 1) + ey     # upper-right node
    return np.column_stack([
        2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
        2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3,
    ]).astype(np.int64)


def _check_density(density: DensityField, mesh: MeshSpec) -> np.ndarray:
    x = density.values
    if x.shape != (mesh.nely, mesh.nelx):
        raise DimensionError(
            f"density shape {x.shape} does not match mesh ({mesh.nely}, {mesh.nelx})"
        )
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ParameterError("densities must be finite and non-negative")
    return x


def _pcg(K, f: np.ndarray, tol: float) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on the reduced system."""
    diag = K.diagonal()
    if np.any(diag <= 0.0):
        raise SingularSystemError("non-positive diagonal in reduced stiffness matrix")
    inv_diag = 1.0 / diag
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        return np.zeros_like(f)
    u = np.zeros_like(f)
    r = f.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    max_iters = 20 * f.size + 1000
    for _ in range(max_iters):
        Kp = K @ p
        pKp = p @ Kp
        if pKp <= 0.0:
            raise SingularSystemError("conjugate gradients broke down (matrix not SPD)")
        alpha = rz / pKp
        u += alpha * p
        r -= alpha * Kp
        if np.linalg.norm(r) <= tol * fnorm:
            return u
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"conjugate gradients did not reach tolerance {tol}",
        residual=float(np.linalg.norm(r) / fnorm),
    )


@functools.lru_cache(maxsize=16)
def _mesh_arrays(mesh: MeshSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (ke, edof) of a mesh, built once and shared by every solve."""
    ke = element_stiffness(mesh.poisson_ratio, mesh.young_modulus)
    edof = element_dof_map(mesh)
    ke.setflags(write=False)
    edof.setflags(write=False)
    return ke, edof


@dataclass(frozen=True)
class _BandPlan:
    """Scatter of the element stiffnesses into band storage of K(free, free).

    Entry k of the kept upper triangle adds `ke_value[k] * x[element[k]]^p` to
    flat position `band_index[k]` of the (bandwidth + 1, free.size) array that
    `solveh_banded` reads: row bandwidth + i - j, column j holds K_red[i, j].
    The array is laid out column-major, as LAPACK reads it, so the solve
    factors it in place instead of first making a transposed copy: that copy
    cost as much as half the factorization and page-faulted on every call.
    """

    free: np.ndarray
    bandwidth: int
    band_index: np.ndarray
    element: np.ndarray
    ke_value: np.ndarray


@functools.lru_cache(maxsize=16)
def _band_plan(mesh: MeshSpec, fixed_dofs: bytes) -> _BandPlan:
    """The plan of one mesh and fixed-DOF set (`fixed_dofs` as int64 bytes)."""
    ke, edof = _mesh_arrays(mesh)
    free = np.setdiff1d(np.arange(mesh.n_dofs), np.frombuffer(fixed_dofs, dtype=np.int64))
    reduced = np.full(mesh.n_dofs, -1, dtype=np.int64)
    reduced[free] = np.arange(free.size)
    red = reduced[edof]
    rows, cols = red[:, :, None], red[:, None, :]
    element, a, b = np.nonzero((rows >= 0) & (rows <= cols))
    i, j = red[element, a], red[element, b]
    bandwidth = int((j - i).max(initial=0))
    return _BandPlan(free=free, bandwidth=bandwidth,
                     band_index=j * (bandwidth + 1) + (bandwidth + i - j),
                     element=element, ke_value=ke[a, b])


def assemble_and_solve(
    density: DensityField,
    penal: float,
    mesh: MeshSpec,
    bc: BoundaryConditions,
    solver: str = "auto",
) -> np.ndarray:
    """Solve K(x) U = F for the full displacement vector.

    `solver`: 'auto' assembles K(free, free) in band storage from a plan
    cached per mesh and fixed-DOF set and solves it by banded Cholesky.
    'pcg' (Jacobi-preconditioned CG, tol 1e-8) and 'dense' (LU with a
    residual check) assemble a sparse matrix and serve as oracles.
    Raises SingularSystemError when the reduced system is not positive definite.
    """
    if solver not in ("auto", "pcg", "dense"):
        raise ParameterError(f"unknown solver '{solver}'")
    x = _check_density(density, mesh)
    plan = _band_plan(mesh, bc.fixed_dofs.tobytes())
    free = plan.free
    if free.size == 0:
        return np.zeros(mesh.n_dofs)
    f_red = bc.force_vector(mesh)[free]
    if solver == "auto":
        weights = plan.ke_value * (x.ravel() ** penal)[plan.element]
        band = np.bincount(plan.band_index, weights=weights,
                           minlength=(plan.bandwidth + 1) * free.size)
        try:
            u_red = solveh_banded(band.reshape(plan.bandwidth + 1, free.size, order="F"), f_red,
                                  overwrite_ab=True)
        except LinAlgError as exc:
            raise SingularSystemError(f"banded Cholesky failed: {exc}") from exc
    else:
        ke, edof = _mesh_arrays(mesh)
        scale = (x.ravel() ** penal)
        data = (ke.ravel()[None, :] * scale[:, None]).ravel()
        rows = np.repeat(edof, 8, axis=1).ravel()
        cols = np.tile(edof, (1, 8)).ravel()
        K = coo_matrix((data, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs)).tocsc()
        K_red = K[free][:, free].tocsr()
        if solver == "pcg":
            u_red = _pcg(K_red, f_red, PCG_TOL)
        else:
            u_red = _dense_solve(K_red.toarray(), f_red)

    u = np.zeros(mesh.n_dofs)
    u[free] = u_red
    return u


def _dense_solve(K: np.ndarray, f: np.ndarray) -> np.ndarray:
    """LU solve that rejects a near-singular system by its residual."""
    try:
        u = np.linalg.solve(K, f)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc
    fnorm = np.linalg.norm(f)
    if fnorm > 0.0:
        rel = np.linalg.norm(K @ u - f) / fnorm
        if not np.isfinite(rel) or rel > PCG_TOL:
            raise SingularSystemError(
                f"dense solve residual {rel:.3e} exceeds {PCG_TOL} (system near singular)"
            )
    return u


def _element_energies(x: np.ndarray, u: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """u_e^T k0 u_e per element, shape (nely, nelx)."""
    ke, edof = _mesh_arrays(mesh)
    ue = u[edof]
    return np.einsum("ij,jk,ik->i", ue, ke, ue).reshape(mesh.nely, mesh.nelx)


def _compliance(x: np.ndarray, energies: np.ndarray, penal: float) -> float:
    return float(np.sum(x**penal * energies))


def _sensitivities(x: np.ndarray, energies: np.ndarray, penal: float) -> np.ndarray:
    return -penal * x ** (penal - 1.0) * energies


def compliance(density: DensityField, u: np.ndarray, penal: float, mesh: MeshSpec) -> float:
    """c(x) = sum_e x_e^p u_e^T k0 u_e."""
    x = _check_density(density, mesh)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_dofs,):
        raise DimensionError(f"displacement shape {u.shape}, expected ({mesh.n_dofs},)")
    return _compliance(x, _element_energies(x, u, mesh), penal)


def sensitivities(density: DensityField, u: np.ndarray, penal: float, mesh: MeshSpec) -> np.ndarray:
    """dc/dx_e = -p x_e^(p-1) u_e^T k0 u_e, shape (nely, nelx), all entries <= 0."""
    x = _check_density(density, mesh)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_dofs,):
        raise DimensionError(f"displacement shape {u.shape}, expected ({mesh.n_dofs},)")
    return _sensitivities(x, _element_energies(x, u, mesh), penal)


@functools.lru_cache(maxsize=16)
def _filter_weights(shape: tuple[int, int], rmin: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only filter kernel H and its row sums over a grid of `shape`."""
    r = int(np.ceil(rmin)) - 1
    di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    w = np.maximum(0.0, rmin - np.sqrt(di**2 + dj**2))
    wsum = convolve2d(np.ones(shape), w, mode="same", boundary="fill", fillvalue=0.0)
    w.setflags(write=False)
    wsum.setflags(write=False)
    return w, wsum


def filter_sensitivities(
    density: DensityField, dc: np.ndarray, rmin: float, mesh: MeshSpec
) -> np.ndarray:
    """Mesh-independency filter: weighted density average of the gradient.

    filtered_e = sum_i H_ei x_i dc_i / (x_e sum_i H_ei),
    H_ei = max(0, rmin - dist(e, i)) with center distance in element widths.
    """
    if rmin <= 0.0:
        raise ParameterError(f"rmin must be positive, got {rmin}")
    x = _check_density(density, mesh)
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    w, wsum = _filter_weights(x.shape, rmin)
    num = convolve2d(x * dc, w, mode="same", boundary="fill", fillvalue=0.0)
    return num / (x * wsum)


def oc_update(density: DensityField, dc: np.ndarray, params: SimpParams) -> DensityField:
    """Optimality-criteria step: x * sqrt(-dc/lambda) clamped to bounds and move limit.

    The multiplier is bisected over [1e-9, 1e9] until the relative bracket
    width drops below 1e-6; the updated mean density meets the target volume
    fraction to 1e-4 or a ConstraintError is raised.
    """
    x = density.values
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    if np.any(dc > 0.0):
        raise ParameterError("oc_update expects non-positive sensitivities")

    lower = np.maximum(params.x_min, x - params.move)
    upper = np.minimum(1.0, x + params.move)

    def volume(lmid: float) -> tuple[float, np.ndarray]:
        xnew = np.clip(x * np.sqrt(-dc / lmid), lower, upper)
        return float(xnew.mean()), xnew

    l1, l2 = 1e-9, 1e9
    vol_hi, _ = volume(l1)   # small multiplier -> densities pushed up
    vol_lo, _ = volume(l2)
    if params.volfrac > vol_hi + 1e-4 or params.volfrac < vol_lo - 1e-4:
        raise ConstraintError(
            f"volume fraction {params.volfrac} unreachable within move limit "
            f"(attainable range [{vol_lo:.6f}, {vol_hi:.6f}])"
        )
    while (l2 - l1) / (l1 + l2) > 1e-6:
        lmid = 0.5 * (l1 + l2)
        vol, xnew = volume(lmid)
        if vol > params.volfrac:
            l1 = lmid
        else:
            l2 = lmid
    vol, xnew = volume(0.5 * (l1 + l2))
    if abs(vol - params.volfrac) > 1e-4:
        raise ConstraintError(
            f"bisection ended with volume {vol:.6f}, target {params.volfrac}"
        )
    return DensityField(xnew)


def run_simp(
    mesh: MeshSpec,
    params: SimpParams,
    bc: BoundaryConditions | None = None,
    solver: str = "auto",
) -> SolveResult:
    """Full SIMP loop: solve, compliance, sensitivities, filter, OC update.

    Stops when the max elementwise density change drops below change_tol;
    hitting max_iters returns converged=False rather than raising.
    """
    if bc is None:
        bc = BoundaryConditions.cantilever(mesh)
    density = DensityField.uniform(mesh, params.volfrac)
    history: list[float] = []
    changes: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iters + 1):
        u = assemble_and_solve(density, params.penal, mesh, bc, solver=solver)
        x = density.values
        energies = _element_energies(x, u, mesh)
        history.append(_compliance(x, energies, params.penal))
        dc = _sensitivities(x, energies, params.penal)
        dcf = filter_sensitivities(density, dc, params.rmin, mesh)
        new_density = oc_update(density, dcf, params)
        change = float(np.abs(new_density.values - x).max())
        changes.append(change)
        density = new_density
        if change < params.change_tol:
            converged = True
            break
    return SolveResult(
        density=density,
        compliance_history=history,
        iterations=iterations,
        converged=converged,
        change_history=changes,
    )
