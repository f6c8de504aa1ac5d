"""2D plane-stress FEM and SIMP compliance minimization on a structured quad mesh.

Conventions: unit square bilinear elements of top88's material, Young's
modulus E0 = YOUNG_MODULUS = 1 and Poisson's ratio nu = POISSON_RATIO = 0.3,
so E(x_e) = x_e^p * E0, and the cantilever carries top88's unit load,
TIP_LOAD = -1 (downward); a density never drops below X_MIN = 1e-3, which
keeps K(x) nonsingular. Node ids run column-major with y down
(node = x*(nely+1) + y), density arrays are (nely, nelx) with row 0 at the top.

The solve follows top88 (Andreassen et al. 2011) and has one path: the index
vectors of the assembly are built once per mesh and fixed-DOF set, and
K(free, free) is assembled straight into LAPACK lower band storage, by one
bincount of an outer product of x^p and the element stiffnesses, and solved
by `_banded_solve`, which calls LAPACK's banded Cholesky `dpbsv` directly.
Column-major node numbering bounds the half-bandwidth of the reduced matrix
by 2*nely + 5 whatever the fixed DOFs. The factorization is most of a solve,
and `_banded_solve` holds nothing else, so it is the function a per-layer
hook of the solve should wrap. `_pcg`, a Jacobi-preconditioned CG, is no part
of that path: it is the reference the tests compare against, and it stays
here under the name the benchmark's per-layer hook wraps until that hook
moves to `_banded_solve`.

The sensitivity filter is also top88's: a sparse matrix H with one row per
element, H_ei = max(0, rmin - dist(e, i)), and its row sums, built once per
(grid shape, rmin) and cached read-only, so each filter call is one sparse
matrix-vector product.

`run_simp` solves half the cantilever when nely is even, as top88 and top99
model half of the MBB beam. The load then sits on the midline node, so the
discrete problem is mirror-symmetric about the horizontal midline: u_x is
antisymmetric and zero on the midline, u_y is symmetric, and so are the
element energies, sensitivities and densities. The top half with u_x = 0 on
its bottom row and half the load is the same problem with half the unknowns
and about half the band. Odd nely, and every other entry point, keep the
full domain: generated designs are not symmetric.

The package's two scalar rules live here, for every module to share:
`check_int` for an integer a caller sets and `check_float` for a real-valued
one. Each raises ParameterError naming the setting, so a string, a bool or a
NaN is refused where it is passed and not by a bare comparison or by numpy
later.

Because every module imports `fem` for those rules, scipy is imported only in
the two functions that call it: `scipy.linalg` at the first solve in
`_banded_solve` and `scipy.sparse` when `_filter_matrix` first builds a
filter. Loading both took 0.2-0.3 s of a 0.45-0.5 s cold start (scipy
1.17 on a 2-core x86 host), and a process that only trains, samples or
reads a checkpoint never needs them.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

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
TIP_LOAD = -1.0
X_MIN = 1e-3


def check_int(name: str, value, minimum: int) -> None:
    """The integer one of the package's two scalar rules: ParameterError naming
    `name` unless `value` is a Python or numpy int >= `minimum`. A bool, or a
    float (even 2.0, NaN or inf), is refused here and not by `range` or numpy
    later."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= minimum
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_float(name: str, value, low: float, high: float, *,
                low_open: bool = False, high_open: bool = False) -> None:
    """The real-valued one of the package's two scalar rules: ParameterError
    naming `name` and the interval unless `value` is a finite Python or numpy
    real number, not a bool, in [low, high], with either end open on request.
    An infinite bound is open, as no finite value reaches it. The value is
    left as given: an int or a numpy float is accepted as it is."""
    try:
        ok = (isinstance(value, (int, float, np.integer, np.floating))
              and not isinstance(value, bool) and math.isfinite(value)
              and (low < value if low_open else low <= value)
              and (value < high if high_open else value <= high))
    except OverflowError:   # an int beyond the float range
        ok = False
    if not ok:
        left = "(" if low_open or low == -math.inf else "["
        right = ")" if high_open or high == math.inf else "]"
        raise ParameterError(
            f"{name} must be a finite number in {left}{low:g}, {high:g}{right}, got {value!r}")


@dataclass(frozen=True)
class MeshSpec:
    """Structured rectangular mesh of unit square elements."""

    nelx: int
    nely: int

    def __post_init__(self):
        check_int("nelx", self.nelx, 1)
        check_int("nely", self.nely, 1)

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
        check_float("volfrac", self.volfrac, X_MIN, 1.0)
        check_float("penal", self.penal, 1.0, math.inf)
        for name in ("rmin", "move", "change_tol"):
            check_float(name, getattr(self, name), 0.0, math.inf, low_open=True)
        check_int("max_iters", self.max_iters, 1)


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
    """Zero-displacement DOFs plus point loads as (dof index, force) pairs.

    `fixed_dofs` takes ints of any int dtype that fit in int64; whether they
    lie in the mesh is checked at the solve, which knows the mesh.
    """

    fixed_dofs: np.ndarray
    loads: list[tuple[int, float]]

    def __post_init__(self):
        dofs = np.asarray(self.fixed_dofs)
        if dofs.size == 0:
            raise ParameterError("at least one DOF must be fixed")
        # a bool, a float or a string is no DOF: int64 would truncate or parse it
        if not np.issubdtype(dofs.dtype, np.integer):
            raise ParameterError(f"fixed_dofs must be ints, got {self.fixed_dofs!r}")
        ints = dofs.astype(np.int64)
        if dofs.dtype.kind == "u" and (ints < 0).any():   # >= 2**63 wraps negative
            raise ParameterError(f"fixed_dofs must fit in int64, got {self.fixed_dofs!r}")
        self.fixed_dofs = np.unique(ints)
        fixed = set(self.fixed_dofs.tolist())
        if not (isinstance(self.loads, (tuple, list)) and all(
                isinstance(load, (tuple, list)) and len(load) == 2 for load in self.loads)):
            raise ParameterError(f"loads must be (dof, value) pairs, got {self.loads!r}")
        for dof, value in self.loads:
            check_int("load DOF", dof, 0)   # the upper bound needs the mesh: force_vector
            if dof in fixed:
                raise ParameterError(f"load applied to fixed DOF {dof}")
            check_float(f"load on DOF {dof}", value, -math.inf, math.inf)

    @staticmethod
    def cantilever(mesh: MeshSpec) -> "BoundaryConditions":
        """Left edge clamped, TIP_LOAD at the vertical midpoint of the right edge.

        For odd nely the load node is row index (nely+1)//2 of the right edge.
        """
        left_nodes = np.arange(mesh.nely + 1)  # x = 0 column
        fixed = np.concatenate([2 * left_nodes, 2 * left_nodes + 1])
        load_node = mesh.nelx * (mesh.nely + 1) + (mesh.nely + 1) // 2
        return BoundaryConditions(fixed_dofs=fixed, loads=[(2 * load_node + 1, TIP_LOAD)])

    def force_vector(self, mesh: MeshSpec) -> np.ndarray:
        f = np.zeros(mesh.n_dofs)
        for dof, value in self.loads:
            if not (0 <= dof < mesh.n_dofs):
                raise DimensionError(f"load DOF {dof} outside mesh with {mesh.n_dofs} DOFs")
            f[dof] += value
        return f


@dataclass
class SolveResult:
    """Outcome of `run_simp`; both histories hold one entry per iteration, so
    `iterations` is their length.

    The density and each compliance are the full domain's, also when the
    loop solved only the top half (twice the half's compliance).
    `change_history[i]` is the max elementwise density change of iteration i.
    """

    density: DensityField
    compliance_history: list[float]
    converged: bool
    change_history: list[float]

    @property
    def iterations(self) -> int:
        return len(self.compliance_history)


def element_stiffness() -> np.ndarray:
    """8x8 stiffness of a unit bilinear quad of YOUNG_MODULUS and POISSON_RATIO,
    plane stress (exact integration)."""
    nu, E = POISSON_RATIO, YOUNG_MODULUS
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


def _check_density_values(x: np.ndarray) -> np.ndarray:
    """ParameterError unless every density of `x` is finite and non-negative.

    Two reductions and no temporary: x.min() is NaN where x holds a NaN and
    negative where it holds -inf, and x.max() is inf where it holds +inf.
    """
    if not (x.min() >= 0.0 and math.isfinite(x.max())):
        raise ParameterError("densities must be finite and non-negative")
    return x


def _check_density(density: DensityField, mesh: MeshSpec) -> np.ndarray:
    x = density.values
    if x.shape != (mesh.nely, mesh.nelx):
        raise DimensionError(
            f"density shape {x.shape} does not match mesh ({mesh.nely}, {mesh.nelx})"
        )
    return _check_density_values(x)


# A band entry of K sums at most four element terms ke_ab * x_e^p, and every
# |ke_ab| is below 1 (the largest is 0.495), so a stiffness x^p of at most a
# quarter of the largest float keeps every entry finite.
_MAX_STIFFNESS = float(np.finfo(np.float64).max) / 4.0


def _check_stiffness(x: np.ndarray, penal: float) -> None:
    """`check_float`'s rule for `penal`, then ParameterError for a density
    field whose stiffness x^penal exceeds _MAX_STIFFNESS. One reduction: the
    power of x.max() is taken on Python floats, whose overflow raises
    OverflowError where numpy's would warn and give inf."""
    check_float("penal", penal, 1.0, math.inf)
    try:
        ok = float(x.max()) ** float(penal) <= _MAX_STIFFNESS
    except OverflowError:
        ok = False
    if not ok:
        raise ParameterError(
            f"density {float(x.max()):g} at penal {penal:g} overflows the stiffness x^penal")


def _pcg(K, f: np.ndarray, tol: float) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on the reduced system.

    Not on the solve path: the tests' CG reference, kept here under the
    `fem:_pcg` name that bench/layers.py hooks until the benchmark hooks
    `_banded_solve`, the `dpbsv` call on lower band storage that every solve
    runs (ROADMAP item 3).

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
    """Scatter of the element stiffnesses into lower band storage of K(free, free).

    The (bandwidth + 1, free.size) array that `dpbsv` reads with lower=1
    holds K_red[j, i] at row j - i, column i, for j >= i. It is laid out
    column-major, as LAPACK reads it, so the solve factors it in place
    instead of first making a transposed copy: that copy cost as much as half
    the factorization and page-faulted on every call.

    `band_index` is an (n_elements, 36) table, flattened element by element:
    column k is pair k of `ke_pair`, the 36 element-stiffness pairs (a, b)
    with g[a] <= g[b] in the element's global DOF order g. That order is the
    same for every element (`element_dof_map`'s layout), so one 36-value row
    of stiffnesses serves them all. Entry (e, k) is the flat band position
    that `x_e^p * ke_pair[k]` adds to, or the one trailing slot past the band
    when the pair touches a fixed DOF; the slot is dropped after the sum.
    """

    free: np.ndarray
    bandwidth: int
    band_index: np.ndarray
    ke_pair: np.ndarray


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
    rank = np.argsort(edof[0])   # the local DOFs in global order, the same for every element
    a, b = np.triu_indices(8)
    a, b = rank[a], rank[b]
    # reduced is increasing on the free DOFs, so i <= j where both are free
    i, j = reduced[edof[:, a]], reduced[edof[:, b]]
    kept = (i >= 0) & (j >= 0)
    bandwidth = int((j - i)[kept].max(initial=0))
    size = (bandwidth + 1) * free.size
    return _BandPlan(free=free, bandwidth=bandwidth,
                     band_index=np.where(kept, i * (bandwidth + 1) + (j - i), size).ravel(),
                     ke_pair=ke[a, b])


def _banded_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K u = rhs by banded Cholesky, K given in `_BandPlan`'s lower band
    storage; `band` and `rhs` are overwritten.

    LAPACK's `dpbsv` is called directly: scipy's `solveh_banded` around it
    adds a batching wrapper, a routine lookup and two finiteness passes on
    every call, and the caller refuses a density that is not finite or whose
    stiffness overflows before it builds the band.
    Raises SingularSystemError when K is not positive definite.
    """
    from scipy.linalg.lapack import dpbsv
    _, u, info = dpbsv(band, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info:
        raise SingularSystemError(
            f"banded Cholesky failed (dpbsv info {info}): K(free, free) is not positive definite")
    return u


def assemble_and_solve(
    density: DensityField,
    penal: float,
    mesh: MeshSpec,
    bc: BoundaryConditions,
) -> np.ndarray:
    """Solve K(x) U = F for the full displacement vector.

    K(free, free) is assembled in lower band storage by one bincount of the
    element stiffnesses, from a plan cached per mesh and fixed-DOF set, and
    solved by `_banded_solve`.
    Raises SingularSystemError when the reduced system is not positive definite.
    """
    x = _check_density(density, mesh)
    _check_stiffness(x, penal)
    plan = _band_plan(mesh, bc.fixed_dofs.tobytes())
    free = plan.free
    if free.size == 0:
        return np.zeros(mesh.n_dofs)
    size = (plan.bandwidth + 1) * free.size
    weights = (x.ravel() ** penal)[:, None] * plan.ke_pair   # (n_elements, 36), as band_index
    band = np.bincount(plan.band_index, weights=weights.ravel(), minlength=size + 1)
    u = np.zeros(mesh.n_dofs)
    u[free] = _banded_solve(band[:size].reshape(plan.bandwidth + 1, free.size, order="F"),
                            bc.force_vector(mesh)[free])
    return u


def _element_energies(u: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """u_e^T k0 u_e per element, shape (nely, nelx), each >= 0."""
    ke, edof = _mesh_arrays(mesh)
    ue = u[edof]
    energies = np.einsum("ij,ij->i", ue @ ke, ue)
    # k0 is positive semi-definite: a negative energy (a rigid-body motion's) is rounding
    np.maximum(energies, 0.0, out=energies)
    return energies.reshape(mesh.nely, mesh.nelx)


def _compliance(x: np.ndarray, energies: np.ndarray, penal: float) -> float:
    return float(np.sum(x**penal * energies))


def _sensitivities(x: np.ndarray, energies: np.ndarray, penal: float) -> np.ndarray:
    """dc/dx_e = -p x_e^(p-1) u_e^T k0 u_e from the element energies; all entries <= 0."""
    return -penal * x ** (penal - 1.0) * energies


def compliance(density: DensityField, u: np.ndarray, penal: float, mesh: MeshSpec) -> float:
    """c(x) = sum_e x_e^p u_e^T k0 u_e."""
    x = _check_density(density, mesh)
    _check_stiffness(x, penal)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_dofs,):
        raise DimensionError(f"displacement shape {u.shape}, expected ({mesh.n_dofs},)")
    return _compliance(x, _element_energies(u, mesh), penal)


@functools.lru_cache(maxsize=16)
def _filter_matrix(shape: tuple[int, int], rmin: float):
    """Read-only filter matrix H, a scipy CSR matrix over a grid of `shape`
    (row-major element order), and its row sums, shaped like the grid."""
    from scipy.sparse import coo_matrix
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
    check_float("rmin", rmin, 0.0, math.inf, low_open=True)
    x = _check_density(density, mesh)
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    H, hsum = _filter_matrix(x.shape, rmin)
    num = (H @ (x * dc).ravel()).reshape(x.shape)
    return num / (x * hsum)


# The bracket search of `oc_update`: at most OC_BRACKET_STEPS Newton steps, each
# aimed a relative OC_OVERSHOOT past the multiplier it predicts, so that once
# the prediction is that close the next volume falls on the other side. The
# bisection stops at a relative width of 1e-6, so a bracket no wider than
# 4 * OC_OVERSHOOT leaves it a midpoint or two to evaluate at most, and the
# search stops there.
OC_BRACKET_STEPS = 8
OC_OVERSHOOT = 1e-7


def _volume(lam: float, x: np.ndarray, neg_dc: np.ndarray, lower: np.ndarray,
            upper: np.ndarray, out: np.ndarray) -> float:
    """Mean of clip(x * sqrt(-dc / lam), lower, upper), evaluated into `out`.

    Plain ufunc calls (the clamp as maximum then minimum, the mean as a
    pairwise add.reduce over the size) round exactly as np.clip and
    ndarray.mean do but skip their Python-level wrappers.
    """
    np.divide(neg_dc, lam, out=out)
    np.sqrt(out, out=out)
    np.multiply(x, out, out=out)
    np.maximum(out, lower, out=out)
    np.minimum(out, upper, out=out)
    return float(np.add.reduce(out, axis=None) / out.size)


def _oc_bracket(x: np.ndarray, neg_dc: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                out: np.ndarray, volfrac: float, above: float, below: float) -> tuple[float, float]:
    """Narrow (above, below), where volume(above) > volfrac >= volume(below),
    by exact volume evaluations; return the narrowed pair.

    The first multiplier is the unclipped closed form (mean(x sqrt(-dc)) /
    volfrac)^2. Each next one is a Newton step in t = lam^-1/2, in which an
    element the clamp leaves free grows linearly: the slope is the sum of the
    free elements over the size. A multiplier outside the bracket, or a step
    without a slope, is replaced by the bracket's geometric midpoint.
    """
    root = float(np.add.reduce(x * np.sqrt(neg_dc), axis=None)) / x.size / volfrac
    lam = root * root   # not root**2, which raises OverflowError past 1e154
    for _ in range(OC_BRACKET_STEPS):
        if not above < lam < below:
            lam = math.sqrt(above * below)
        vol = _volume(lam, x, neg_dc, lower, upper, out)
        if vol > volfrac:
            above = lam
        else:
            below = lam
        if below <= above * (1.0 + 4.0 * OC_OVERSHOOT):
            break
        free = (out > lower) & (out < upper)
        slope = float(np.dot(free.ravel(), out.ravel())) / out.size
        ratio = 1.0 + (volfrac - vol) / slope if slope > 0.0 else 0.0
        overshoot = 1.0 + OC_OVERSHOOT if vol > volfrac else 1.0 - OC_OVERSHOOT
        # no step gives NaN, which fails the bracket test at the top of the loop
        lam = lam / (ratio * ratio) * overshoot if ratio > 0.0 else math.nan
    return above, below


def oc_update(density: DensityField, dc: np.ndarray, params: SimpParams) -> DensityField:
    """Optimality-criteria step: x * sqrt(-dc/lambda) clamped to bounds and move limit.

    The multiplier is bisected over [1e-9, 1e9] until the relative bracket
    width drops below 1e-6; the updated mean density meets the target volume
    fraction to 1e-4 or a ConstraintError is raised. The volume is evaluated
    by `_volume` in one reused buffer. A density that is not finite and
    non-negative is a ParameterError, as in `assemble_and_solve`.

    The bisection path is the plain one, step by step, but most steps are
    decided without an evaluation. volume(lambda) is non-increasing in lambda
    also in floating point: divide, sqrt, multiply by x >= 0, maximum and
    minimum are each correctly rounded and monotone in their operand, and
    the pairwise add.reduce, whose summation order depends only on the
    buffer, adds non-increasing terms. So once one multiplier `above` is
    known to give a volume above the target and one `below` a volume at or
    below it, every midpoint outside (above, below) has its answer.
    `_oc_bracket` narrows that pair by a few exact evaluations first, and the
    bisection evaluates only the midpoints inside it. That needs the end
    volumes on either side of the target and not NaN (a NaN from x = 0 times
    an overflowed sqrt, say, breaks the order): otherwise every midpoint is
    evaluated. Nothing depends on an earlier call.
    """
    x = _check_density_values(density.values)
    dc = np.asarray(dc, dtype=np.float64)
    if dc.shape != x.shape:
        raise DimensionError(f"gradient shape {dc.shape} does not match density {x.shape}")
    # dc.max() is NaN where dc holds a NaN, and dc.min() is -inf where it holds -inf
    if not (dc.max() <= 0.0 and math.isfinite(dc.min())):
        raise ParameterError("oc_update expects finite, non-positive sensitivities")

    lower = np.maximum(X_MIN, x - params.move)
    upper = np.minimum(1.0, x + params.move)
    neg_dc = np.negative(dc)
    xnew = np.empty_like(x)
    volfrac = params.volfrac

    l1, l2 = 1e-9, 1e9
    vol_hi = _volume(l1, x, neg_dc, lower, upper, xnew)   # small multiplier -> densities pushed up
    vol_lo = _volume(l2, x, neg_dc, lower, upper, xnew)
    if volfrac > vol_hi + 1e-4 or volfrac < vol_lo - 1e-4:
        raise ConstraintError(
            f"volume fraction {volfrac} unreachable within move limit "
            f"(attainable range [{vol_lo:.6f}, {vol_hi:.6f}])"
        )
    above, below = 0.0, math.inf   # no midpoint decided
    if vol_hi > volfrac >= vol_lo:   # False for a NaN
        above, below = _oc_bracket(x, neg_dc, lower, upper, xnew, volfrac, l1, l2)
    while (l2 - l1) / (l1 + l2) > 1e-6:
        lmid = 0.5 * (l1 + l2)
        if lmid <= above or (lmid < below
                             and _volume(lmid, x, neg_dc, lower, upper, xnew) > volfrac):
            l1 = lmid
        else:
            l2 = lmid
    vol = _volume(0.5 * (l1 + l2), x, neg_dc, lower, upper, xnew)
    if not abs(vol - volfrac) <= 1e-4:
        raise ConstraintError(
            f"bisection ended with volume {vol:.6f}, target {volfrac}"
        )
    return DensityField(xnew)


def _mirror(a: np.ndarray) -> np.ndarray:
    """Top-half rows `a` stacked on their mirror image about the horizontal midline."""
    return np.concatenate([a, a[::-1]])


def run_simp(mesh: MeshSpec, params: SimpParams) -> SolveResult:
    """The SIMP loop on the cantilever: solve, compliance, sensitivities, filter, OC update.

    Stops when the max elementwise density change drops below change_tol;
    hitting max_iters returns converged=False rather than raising.

    For even nely the loop runs on the top half, mesh (nelx, nely/2), with
    u_x = 0 on the midline nodes (its bottom row) and half the load, and
    doubles each compliance; the filter sees the half stacked on its mirror
    image, and so does the caller. The load on the midline node makes the
    displacement antisymmetric and the densities symmetric about the midline,
    so this is the same discrete problem and only rounding differs. Odd nely
    solves the full mesh.
    """
    if mesh.nely % 2:
        solve_mesh, scale, mirror = mesh, 1.0, np.asarray   # np.asarray: no mirror, no copy
        bc = BoundaryConditions.cantilever(mesh)
    else:
        solve_mesh, scale, mirror = MeshSpec(mesh.nelx, mesh.nely // 2), 2.0, _mirror
        left = np.arange(solve_mesh.nely + 1)
        midline = np.arange(mesh.nelx + 1) * (solve_mesh.nely + 1) + solve_mesh.nely
        bc = BoundaryConditions(fixed_dofs=np.concatenate([2 * left, 2 * left + 1, 2 * midline]),
                                loads=[(2 * midline[-1] + 1, 0.5 * TIP_LOAD)])
    density = DensityField.uniform(solve_mesh, params.volfrac)
    history: list[float] = []
    changes: list[float] = []
    converged = False
    for _ in range(params.max_iters):
        u = assemble_and_solve(density, params.penal, solve_mesh, bc)
        x = density.values
        energies = _element_energies(u, solve_mesh)
        history.append(scale * _compliance(x, energies, params.penal))
        dc = _sensitivities(x, energies, params.penal)
        dcf = filter_sensitivities(DensityField(mirror(x)), mirror(dc), params.rmin,
                                   mesh)[:solve_mesh.nely]
        new_density = oc_update(density, dcf, params)
        change = float(np.abs(new_density.values - x).max())
        changes.append(change)
        density = new_density
        if change < params.change_tol:
            converged = True
            break
    return SolveResult(
        density=DensityField(mirror(density.values)),
        compliance_history=history,
        converged=converged,
        change_history=changes,
    )
