"""2D plane-stress FEM and SIMP compliance minimization on a structured quad mesh.

Conventions: unit square bilinear elements of a material with Young's modulus
E0 = 1 and Poisson's ratio nu = 0.3, as in top88, so E(x_e) = x_e^p * E0; a
density never drops below X_MIN = 1e-3, which keeps K(x) nonsingular. Node ids
run column-major with y down (node = x*(nely+1) + y), density arrays are
(nely, nelx) with row 0 at the top.

The solve follows top88 (Andreassen et al. 2011) and has one path: the index
vectors of the assembly are built once per mesh and fixed-DOF set, and
K(free, free) is assembled straight into LAPACK upper band storage and solved
by a banded Cholesky factorization. Column-major node numbering bounds the
half-bandwidth of the reduced matrix by 2*nely + 5 whatever the fixed DOFs.
`_pcg`, a Jacobi-preconditioned CG, is no part of that path: it is the
reference the tests compare against, and it stays here under the name the
benchmark's per-layer hook wraps until that hook moves to the banded solve.

The sensitivity filter is also top88's: a sparse matrix H with one row per
element, H_ei = max(0, rmin - dist(e, i)), and its row sums, built once per
(grid shape, rmin) and cached read-only, so each filter call is one sparse
matrix-vector product.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse import coo_matrix, csr_matrix

from .exceptions import (
    ConstraintError,
    DimensionError,
    ParameterError,
    SingularSystemError,
    SolverError,
)

PCG_TOL = 1e-8
YOUNG_MODULUS = 1.0
POISSON_RATIO = 0.3
X_MIN = 1e-3


@dataclass(frozen=True)
class MeshSpec:
    """Structured rectangular mesh of unit square elements."""

    nelx: int
    nely: int

    def __post_init__(self):
        if self.nelx < 1 or self.nely < 1:
            raise ParameterError(f"mesh must have nelx,nely >= 1, got {self.nelx}x{self.nely}")

    @property
    def n_dofs(self) -> int:
        return 2 * (self.nelx + 1) * (self.nely + 1)


@dataclass(frozen=True)
class SimpParams:
    """Inputs of the penalized compliance minimization; densities stay in [X_MIN, 1]."""

    volfrac: float
    penal: float = 3.0
    rmin: float = 1.5
    move: float = 0.2
    change_tol: float = 0.01
    max_iters: int = 200

    def __post_init__(self):
        if not (X_MIN <= self.volfrac <= 1.0):
            raise ParameterError(f"need {X_MIN} <= volfrac <= 1, got volfrac={self.volfrac}")
        # each `not` form also rejects NaN, which fails every comparison
        if not 1.0 <= self.penal < np.inf:
            raise ParameterError(f"penal must be finite and >= 1, got {self.penal}")
        if not 0.0 < self.rmin < np.inf:
            raise ParameterError(f"rmin must be positive and finite, got {self.rmin}")
        if not 0.0 < self.move < np.inf:
            raise ParameterError(f"move limit must be positive and finite, got {self.move}")
        if not 0.0 < self.change_tol < np.inf:
            raise ParameterError(f"change_tol must be positive and finite, got {self.change_tol}")
        if not 1 <= self.max_iters < np.inf:
            raise ParameterError(f"max_iters must be finite and >= 1, got {self.max_iters}")


@dataclass
class DensityField:
    """Per-element densities, shape (nely, nelx), row 0 = top."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"density field must be 2D, got shape {self.values.shape}")

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
        for dof, value in self.loads:
            if dof in fixed:
                raise ParameterError(f"load applied to fixed DOF {dof}")
            if not np.isfinite(value):
                raise ParameterError(f"load on DOF {dof} must be finite, got {value}")

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


def element_stiffness(nu: float = POISSON_RATIO, E: float = YOUNG_MODULUS) -> np.ndarray:
    """8x8 stiffness of a unit bilinear quad, plane stress (exact integration)."""
    if not (0.0 <= nu < 0.5):
        raise ParameterError(f"poisson ratio must be in [0, 0.5), got {nu}")
    if not 0.0 < E < np.inf:
        raise ParameterError(f"young modulus must be positive and finite, got {E}")
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
    """(nelx * nely, 8) global DOF indices per element, element order row-major."""
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
    """Jacobi-preconditioned conjugate gradients on the reduced system.

    Not on the solve path: the tests' CG reference, kept here under the
    `fem:_pcg` name that bench/layers.py hooks until ROADMAP item 7(b).

    Stops on the true residual ||f - K u|| / ||f|| <= tol. The CG recurrence
    residual drifts from the true one on high-contrast designs, so when the
    recurrence reports convergence the true residual is recomputed, and CG
    restarts from it while it is still above `tol`, within one iteration cap.
    """
    diag = K.diagonal()
    if np.any(diag <= 0.0):
        raise SingularSystemError("non-positive diagonal in reduced stiffness matrix")
    inv_diag = 1.0 / diag
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        return np.zeros_like(f)
    u = np.zeros_like(f)
    r = f.copy()
    iters_left = 20 * f.size + 1000
    while iters_left:
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        while iters_left:
            iters_left -= 1
            Kp = K @ p
            pKp = p @ Kp
            if pKp <= 0.0:
                raise SingularSystemError("conjugate gradients broke down (matrix not SPD)")
            alpha = rz / pKp
            u += alpha * p
            r -= alpha * Kp
            if np.linalg.norm(r) <= tol * fnorm:
                break
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = f - K @ u
        if np.linalg.norm(r) <= tol * fnorm:
            return u
    raise SolverError(
        f"conjugate gradients did not reach tolerance {tol}",
        residual=float(np.linalg.norm(r) / fnorm),
    )


@functools.lru_cache(maxsize=16)
def _mesh_arrays(mesh: MeshSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (ke, edof) of a mesh, built once and shared by every solve."""
    ke = element_stiffness()
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
    """The plan of one mesh and fixed-DOF set (`fixed_dofs` as int64 bytes, inside the mesh)."""
    fixed = np.frombuffer(fixed_dofs, dtype=np.int64)
    outside = fixed[(fixed < 0) | (fixed >= mesh.n_dofs)]
    if outside.size:
        raise DimensionError(
            f"fixed DOFs {outside.tolist()} outside mesh with {mesh.n_dofs} DOFs")
    ke, edof = _mesh_arrays(mesh)
    free = np.setdiff1d(np.arange(mesh.n_dofs), fixed)
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
) -> np.ndarray:
    """Solve K(x) U = F for the full displacement vector.

    K(free, free) is assembled in band storage from a plan cached per mesh
    and fixed-DOF set and solved by banded Cholesky.
    Raises SingularSystemError when the reduced system is not positive definite.
    """
    x = _check_density(density, mesh)
    plan = _band_plan(mesh, bc.fixed_dofs.tobytes())
    free = plan.free
    if free.size == 0:
        return np.zeros(mesh.n_dofs)
    f_red = bc.force_vector(mesh)[free]
    weights = plan.ke_value * (x.ravel() ** penal)[plan.element]
    band = np.bincount(plan.band_index, weights=weights,
                       minlength=(plan.bandwidth + 1) * free.size)
    try:
        u_red = solveh_banded(band.reshape(plan.bandwidth + 1, free.size, order="F"), f_red,
                              overwrite_ab=True)
    except LinAlgError as exc:
        raise SingularSystemError(f"banded Cholesky failed: {exc}") from exc
    u = np.zeros(mesh.n_dofs)
    u[free] = u_red
    return u


def _element_energies(x: np.ndarray, u: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """u_e^T k0 u_e per element, shape (nely, nelx)."""
    ke, edof = _mesh_arrays(mesh)
    ue = u[edof]
    return np.einsum("ij,ij->i", ue @ ke, ue).reshape(mesh.nely, mesh.nelx)


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
def _filter_matrix(shape: tuple[int, int], rmin: float) -> tuple[csr_matrix, np.ndarray]:
    """Read-only filter matrix H over a grid of `shape` (row-major element
    order) and its row sums, shaped like the grid."""
    nely, nelx = shape
    r = int(np.ceil(rmin)) - 1
    ey, ex = np.divmod(np.arange(nely * nelx), nelx)
    rows, cols, vals = [], [], []
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            weight = rmin - np.sqrt(di**2 + dj**2)
            if weight <= 0.0:
                continue
            e = np.flatnonzero((ey + di >= 0) & (ey + di < nely) & (ex + dj >= 0) & (ex + dj < nelx))
            rows.append(e)
            cols.append(e + di * nelx + dj)
            vals.append(np.full(e.size, weight))
    H = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(nely * nelx, nely * nelx)).tocsr()
    hsum = np.asarray(H.sum(axis=1)).reshape(shape)
    for a in (H.data, H.indices, H.indptr, hsum):
        a.setflags(write=False)
    return H, hsum


def filter_sensitivities(
    density: DensityField, dc: np.ndarray, rmin: float, mesh: MeshSpec
) -> np.ndarray:
    """Mesh-independency filter: weighted density average of the gradient.

    filtered_e = sum_i H_ei x_i dc_i / (x_e sum_i H_ei),
    H_ei = max(0, rmin - dist(e, i)) with center distance in element widths.
    """
    if not 0.0 < rmin < np.inf:   # NaN included
        raise ParameterError(f"rmin must be positive and finite, got {rmin}")
    x = _check_density(density, mesh)
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    H, hsum = _filter_matrix(x.shape, rmin)
    num = (H @ (x * dc).ravel()).reshape(x.shape)
    return num / (x * hsum)


def oc_update(density: DensityField, dc: np.ndarray, params: SimpParams) -> DensityField:
    """Optimality-criteria step: x * sqrt(-dc/lambda) clamped to bounds and move limit.

    The multiplier is bisected over [1e-9, 1e9] until the relative bracket
    width drops below 1e-6; the updated mean density meets the target volume
    fraction to 1e-4 or a ConstraintError is raised. Each bisection step
    evaluates the volume in one reused buffer with plain ufunc calls (the
    clamp as maximum then minimum, the mean as a pairwise add.reduce over the
    size), which round exactly as np.clip and ndarray.mean do but skip their
    Python-level wrappers.
    """
    x = density.values
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    if not np.all(np.isfinite(dc)) or np.any(dc > 0.0):
        raise ParameterError("oc_update expects finite, non-positive sensitivities")

    lower = np.maximum(X_MIN, x - params.move)
    upper = np.minimum(1.0, x + params.move)
    neg_dc = np.negative(dc)
    xnew = np.empty_like(x)

    def volume(lmid: float) -> float:
        """Mean of clip(x * sqrt(-dc / lmid)), evaluated into `xnew`."""
        np.divide(neg_dc, lmid, out=xnew)
        np.sqrt(xnew, out=xnew)
        np.multiply(x, xnew, out=xnew)
        np.maximum(xnew, lower, out=xnew)
        np.minimum(xnew, upper, out=xnew)
        return float(np.add.reduce(xnew, axis=None) / xnew.size)

    l1, l2 = 1e-9, 1e9
    vol_hi = volume(l1)   # small multiplier -> densities pushed up
    vol_lo = volume(l2)
    if params.volfrac > vol_hi + 1e-4 or params.volfrac < vol_lo - 1e-4:
        raise ConstraintError(
            f"volume fraction {params.volfrac} unreachable within move limit "
            f"(attainable range [{vol_lo:.6f}, {vol_hi:.6f}])"
        )
    while (l2 - l1) / (l1 + l2) > 1e-6:
        lmid = 0.5 * (l1 + l2)
        if volume(lmid) > params.volfrac:
            l1 = lmid
        else:
            l2 = lmid
    vol = volume(0.5 * (l1 + l2))
    if not abs(vol - params.volfrac) <= 1e-4:
        raise ConstraintError(
            f"bisection ended with volume {vol:.6f}, target {params.volfrac}"
        )
    return DensityField(xnew)


def run_simp(mesh: MeshSpec, params: SimpParams) -> SolveResult:
    """Full SIMP loop on the cantilever: solve, compliance, sensitivities, filter, OC update.

    Stops when the max elementwise density change drops below change_tol;
    hitting max_iters returns converged=False rather than raising.
    """
    bc = BoundaryConditions.cantilever(mesh)
    density = DensityField.uniform(mesh, params.volfrac)
    history: list[float] = []
    changes: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iters + 1):
        u = assemble_and_solve(density, params.penal, mesh, bc)
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
