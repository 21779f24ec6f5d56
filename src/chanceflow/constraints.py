"""Declarative constraints on clean samples, with their face values and Jacobians.

A constraint contributes one or more scalar faces g_j(x); the feasible set
is {x : g_j(x) <= 0 for all j}. Every family below, and ConstraintSet,
implements one interface:

- face_values(x) takes one state (d,) or a batch (B, d) and returns
  (n_faces,) or (B, n_faces); each row of a batch is bitwise the value of
  that row evaluated alone;
- jacobian(x) gives the gradient rows of one state as an (n_faces, d)
  matrix, defined at every finite state (MinDistance's center included);
- project(x), on the families with has_closed_projection, is the exact
  Euclidean projection of one state;
- row_block(x, local) gives the gradient rows of the listed faces of one
  state as a row block (below), which Gauss-Newton reads J J^T and J^T y
  from without stacking the rows into one dense matrix.

A row block holds the rows R of some faces and offers at(cols) (the entries
R[:, cols]), dense() (R itself), gram() (R R^T) and rmatvec(y) (R^T y). A
LinearIneq or LinearBand all of whose rows have exactly one nonzero entry
(detected from its coefficients at construction) gives a CoordinateRows
block of (column, coefficient) pairs: its Gram entries and its cross block
with any other block are single exact products, and R^T y is a scatter-add.
Other kinds give DenseRows of their jacobian, unless they supply a
structured block of their own (the reaction-diffusion mass law does).
ActiveRows assembles the blocks of a set's active faces.

A LinearBand holds one row or a block of k rows whose A A^T is diagonal
(checked exactly at construction): its faces are one row-wise dot product,
its Jacobian is the signed rows, and its projection is the exact clip of
every row in one pass, because orthogonal rows do not interact. By the same
exact check, ConstraintSet.orthogonal holds when every member is closed-form
and all their rows (LinearIneq.a, the band rows) are mutually orthogonal.

Hinge residuals, active faces and the maximum violation are all read off
face_values. max_violation(cs, x) is batch-first too: a float for one
state, a (B,) array for a batch, and every feasibility test of a
ConstraintSet goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .numerics import stream_rng

__all__ = [
    "LinearIneq",
    "LinearBand",
    "MinDistance",
    "SmoothScalar",
    "ConstraintSet",
    "DenseRows",
    "CoordinateRows",
    "ActiveRows",
    "jacobian_active",
    "hinge_max",
    "max_violation",
]

_FD_STEP = 1e-6
_FD_RTOL = 1e-5
_PROBE_SEED = 0x5EED_CAFE  # fixed stream for construction-time gradient probes


def _coefficients(a, ndims=(1,)) -> np.ndarray:
    """Finite coefficients with ndim in ndims and no zero row."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in ndims or a.size == 0:
        allowed = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"coefficients must be {allowed} and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("coefficient vector must be finite")
    if (np.vecdot(a, a) == 0.0).any():
        raise ValueError("coefficient vector must be nonzero")
    return a


def _orthogonal(rows: np.ndarray) -> bool:
    """Whether A A^T is exactly diagonal: r_i.r_j == 0.0 for all rows i != j."""
    return not (rows @ rows.T)[~np.eye(len(rows), dtype=bool)].any()


def _coordinates(jac: np.ndarray) -> tuple | None:
    """(columns, coefficients) of the face rows jac when every row has
    exactly one nonzero entry, else None. No row is zero (_coefficients),
    so that holds exactly when jac has one nonzero entry per row in all."""
    nonzero = jac != 0.0
    if np.count_nonzero(nonzero) != len(jac):
        return None
    cols = np.argmax(nonzero, axis=1)
    return cols, jac[np.arange(len(jac)), cols]


def _linear_rows(jac: np.ndarray, coords: tuple | None, local) -> DenseRows | CoordinateRows:
    if coords is None:
        return DenseRows(jac[local])
    cols, coef = coords
    return CoordinateRows(cols[local], coef[local], jac.shape[1])


@dataclass(frozen=True)
class LinearIneq:
    """Halfspace a.x <= b."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _coefficients(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.b):
            raise ValueError(f"halfspace bound b must be finite, got {self.b}")
        object.__setattr__(self, "_coords", _coordinates(self.a[None, :]))

    @property
    def dim(self):
        return self.a.size

    n_faces = 1
    has_closed_projection = True

    def face_values(self, x: np.ndarray) -> np.ndarray:
        return (np.vecdot(x, self.a) - self.b)[..., None]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.a[None, :].copy()

    def row_block(self, x: np.ndarray, local) -> DenseRows | CoordinateRows:
        return _linear_rows(self.a[None, :], self._coords, local)

    def project(self, x: np.ndarray) -> np.ndarray:
        s = float(self.a @ x) - self.b
        if s <= 0.0:
            return np.array(x, dtype=float)
        return x - (s / float(self.a @ self.a)) * self.a


@dataclass(frozen=True)
class LinearBand:
    """Slab lo <= a.x <= hi, or a block of k slabs lo_r <= a_r.x <= hi_r.

    a is one row (d,) with scalar bounds, or k rows (k, d) with bounds of
    shape (k,); the rows of a block must be mutually orthogonal, with
    a_r.a_q exactly 0.0 for r != q. Faces interleave the sides of each row:
    2r is the lower side of row r, 2r + 1 its upper side.
    """

    a: np.ndarray
    lo: float | np.ndarray
    hi: float | np.ndarray

    def __post_init__(self):
        a = _coefficients(self.a, ndims=(1, 2))
        rows = a.reshape(-1, a.shape[-1])
        k = rows.shape[0]
        lo = np.asarray(self.lo, dtype=float) + 0.0  # a -0.0 bound becomes 0.0
        hi = np.asarray(self.hi, dtype=float)
        shape = () if a.ndim == 1 else (k,)
        if lo.shape != shape or hi.shape != shape:
            raise ValueError(f"band bounds must have shape {shape} for coefficients of "
                             f"shape {a.shape}, got {lo.shape} and {hi.shape}")
        if not (lo <= hi).all():
            raise ValueError(f"band requires lo <= hi, got [{self.lo}, {self.hi}]")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"band bounds lo and hi must be finite, got [{self.lo}, {self.hi}]")
        if not _orthogonal(rows):
            raise ValueError("band rows must be mutually orthogonal (A A^T diagonal)")
        jac = np.empty((2 * k, rows.shape[1]))
        jac[0::2] = -rows
        jac[1::2] = rows
        jac.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lo", float(lo) if a.ndim == 1 else lo)
        object.__setattr__(self, "hi", float(hi) if a.ndim == 1 else hi)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_lo", lo.reshape(k))
        object.__setattr__(self, "_hi", hi.reshape(k))
        object.__setattr__(self, "_sq", np.vecdot(rows, rows))
        object.__setattr__(self, "_jac", jac)
        object.__setattr__(self, "_coords", _coordinates(jac))

    @property
    def dim(self):
        return self._rows.shape[1]

    @property
    def n_faces(self) -> int:
        return 2 * self._rows.shape[0]

    has_closed_projection = True

    def face_values(self, x: np.ndarray) -> np.ndarray:
        # One product per row and state, shared by the row's two faces.
        s = np.vecdot(np.asarray(x)[..., None, :], self._rows)
        vals = np.empty(s.shape[:-1] + (self.n_faces,))
        vals[..., 0::2] = self._lo - s
        vals[..., 1::2] = s - self._hi
        return vals

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._jac

    def row_block(self, x: np.ndarray, local) -> DenseRows | CoordinateRows:
        return _linear_rows(self._jac, self._coords, local)

    def project(self, x: np.ndarray) -> np.ndarray:
        s = np.vecdot(x, self._rows)
        step = np.minimum(np.maximum(s, self._lo), self._hi) - s
        if not step.any():
            return np.array(x, dtype=float)
        return x + (step / self._sq) @ self._rows

    def with_bounds(self, lo, hi) -> LinearBand | None:
        """The same rows with new bounds of this band's shape. Rows whose
        new bounds cross are left out; None when no row is left."""
        keep = np.asarray(lo) <= np.asarray(hi)
        if keep.all():
            return LinearBand(self.a, lo, hi)
        if self.a.ndim == 1 or not keep.any():
            return None
        return LinearBand(self.a[keep], np.asarray(lo)[keep], np.asarray(hi)[keep])


@dataclass(frozen=True)
class MinDistance:
    """Keep-out ball: ||x[subset] - center|| >= radius (nonconvex).

    coord_subset selects which coordinates the distance is measured over;
    None means all of them.

    The face r - ||x_S - c|| is not differentiable at the center, where every
    direction leaves the ball equally fast. jacobian returns there the unit
    row -e_k along the first measured coordinate (k = coord_subset[0], or 0
    without a subset): a generalized gradient, so the row is defined at every
    finite state and a Gauss-Newton step from the center moves along +e_k.
    """

    center: np.ndarray
    radius: float
    coord_subset: tuple | None = None

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1 or center.size == 0 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite non-empty 1-D vector")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.coord_subset is not None:
            subset = tuple(int(i) for i in self.coord_subset)
            if len(subset) != center.size:
                raise ValueError("coord_subset length must match center length")
            if len(set(subset)) != len(subset) or min(subset) < 0:
                raise ValueError("coord_subset must be distinct non-negative indices")
            object.__setattr__(self, "coord_subset", subset)

    @property
    def dim(self):
        # With a subset the ambient dimension is not pinned by the constraint.
        return self.center.size if self.coord_subset is None else None

    n_faces = 1
    has_closed_projection = False

    def _select(self, x: np.ndarray) -> np.ndarray:
        return x if self.coord_subset is None else x[..., list(self.coord_subset)]

    def face_values(self, x: np.ndarray) -> np.ndarray:
        # A batch's selected columns come back column-major, and a strided
        # row's dot product rounds differently from a contiguous one's.
        v = np.ascontiguousarray(self._select(x) - self.center)
        return (self.radius - np.sqrt(np.vecdot(v, v)))[..., None]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        diff = self._select(x) - self.center
        dist = float(np.linalg.norm(diff))
        # At the center: -e_0 of the measured coordinates (class docstring).
        row = -diff / dist if dist != 0.0 else -np.eye(1, diff.size)[0]
        grad = np.zeros_like(np.asarray(x, dtype=float))
        grad[... if self.coord_subset is None else list(self.coord_subset)] = row
        return grad[None, :]

    def row_block(self, x: np.ndarray, local) -> DenseRows:
        return DenseRows(self.jacobian(x)[local])


@dataclass(frozen=True)
class SmoothScalar:
    """User-supplied differentiable constraint g(x) <= 0 with n_faces faces.

    g returns the (n_faces,) face values and grad their (n_faces, dim)
    Jacobian; with one face, a scalar g and a (dim,) gradient are accepted
    too. Several faces in one member let a structured constraint (the
    reaction-diffusion mass law, say) evaluate all of them in one vectorized
    pass and its Jacobian once per projection step.

    Every face's gradient is checked against central finite differences on
    seeded probe directions at construction; a mismatch beyond 1e-5 relative
    error, or an output of the wrong shape, rejects the pair immediately
    rather than corrupting projections later.
    """

    dim: int
    g: callable = field(repr=False)
    grad: callable = field(repr=False)
    name: str = ""
    validate: bool = True
    n_faces: int = 1

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dimension must be positive")
        if int(self.n_faces) < 1:
            raise ValueError("a smooth constraint needs at least one face")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n_faces", int(self.n_faces))
        if self.validate:
            self._check_gradient()

    def _check_gradient(self):
        rng = stream_rng(_PROBE_SEED, self.dim)
        for _ in range(2):
            x = rng.standard_normal(self.dim)
            jac = self.jacobian(x)
            for _ in range(3):
                v = rng.standard_normal(self.dim)
                v /= np.linalg.norm(v)
                fd = (self.face_values(x + _FD_STEP * v)
                      - self.face_values(x - _FD_STEP * v)) / (2.0 * _FD_STEP)
                analytic = jac @ v
                bad = np.abs(fd - analytic) > _FD_RTOL * (1.0 + np.abs(fd))
                if bad.any():
                    f = int(np.argmax(bad))
                    raise ValueError(
                        f"gradient evaluator disagrees with finite differences on face {f} "
                        f"(directional derivative {fd[f]:.6e} vs {analytic[f]:.6e})"
                        + self._named())

    def _named(self) -> str:
        return f" for constraint {self.name!r}" if self.name else ""

    def _shaped(self, out, shape: tuple, what: str) -> np.ndarray:
        arr = np.asarray(out, dtype=float)
        if arr.shape == shape:
            return arr
        if shape[0] == 1 and arr.shape == shape[1:]:
            return arr.reshape(shape)
        raise ValueError(f"{what} evaluator returned shape {arr.shape}, "
                         f"expected {shape}" + self._named())

    has_closed_projection = False

    def face_values(self, x: np.ndarray) -> np.ndarray:
        # g is a function of one state, so a batch is evaluated row by row.
        if np.ndim(x) == 2:
            return np.array([self.face_values(row) for row in x]).reshape(len(x), self.n_faces)
        return self._shaped(self.g(x), (self.n_faces,), "constraint")

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._shaped(self.grad(x), (self.n_faces, self.dim), "gradient")

    def row_block(self, x: np.ndarray, local) -> DenseRows:
        return DenseRows(self.jacobian(x)[local])


CONSTRAINT_KINDS = (LinearIneq, LinearBand, MinDistance, SmoothScalar)


@dataclass(frozen=True)
class ConstraintSet:
    """Immutable conjunction of constraints with a feasibility tolerance."""

    members: tuple
    tol: float = 1e-8
    orthogonal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(self.members)
        for c in members:
            if not isinstance(c, CONSTRAINT_KINDS):
                raise TypeError(f"unsupported constraint type {type(c).__name__}")
        if not 0.0 < float(self.tol) < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        dims = {c.dim for c in members if c.dim is not None}
        if len(dims) > 1:
            raise ValueError(f"constraints disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "_dim", dims.pop() if dims else None)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "tol", float(self.tol))
        faces = tuple((i, j) for i, c in enumerate(members) for j in range(c.n_faces))
        object.__setattr__(self, "_faces", faces)
        owner, local = np.array(faces, dtype=np.intp).reshape(-1, 2).T
        object.__setattr__(self, "_face_owner", owner)
        object.__setattr__(self, "_face_local", local)
        object.__setattr__(self, "orthogonal", self.all_closed_form and (
            not members or _orthogonal(np.concatenate([np.atleast_2d(c.a) for c in members]))))

    @property
    def dim(self):
        return self._dim

    @property
    def n_faces(self) -> int:
        return len(self._faces)

    @property
    def faces(self) -> tuple:
        """(member_index, face_index) pair for every scalar face, in order."""
        return self._faces

    @property
    def all_closed_form(self) -> bool:
        return all(c.has_closed_projection for c in self.members)

    def face_values(self, x: np.ndarray) -> np.ndarray:
        """Every face of every member, in declaration order: (n_faces,) for
        one state, (B, n_faces) for a batch. A non-finite state or a NaN
        face value raises NumericalError."""
        x = _check_point(self, x)
        if not self.members:
            return np.empty(x.shape[:-1] + (0,))
        vals = np.concatenate([c.face_values(x) for c in self.members], axis=-1)
        if np.isnan(vals).any():
            raise NumericalError("constraint evaluation gave a NaN face value")
        return vals


def _check_point(cs: ConstraintSet, x) -> np.ndarray:
    # Contiguous rows, so each row's dot products round as one state's do.
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a state (d,) or a batch (B, d), got shape {x.shape}")
    if cs.dim is not None and x.shape[-1] != cs.dim:
        raise ValueError(f"state dimension {x.shape[-1]} does not match "
                         f"constraint dimension {cs.dim}")
    if not np.isfinite(x).all():
        raise NumericalError("constraint evaluation at a non-finite state")
    return x


def jacobian_active(cs: ConstraintSet, x, active) -> np.ndarray:
    """Gradient rows of the listed faces (a sequence or an index array), one
    row per active face, in the listed order.

    Each member owning an active face has its Jacobian evaluated once, and
    all of its active rows are gathered from it with one index.
    """
    if len(active) == 0:
        raise ValueError("jacobian_active requires a nonempty active list")
    x = _check_point(cs, x)
    if x.ndim != 1:
        raise ValueError(f"jacobian_active takes one state (d,), got shape {x.shape}")
    active = np.asarray(active, dtype=np.intp)
    owner = cs._face_owner[active]
    local = cs._face_local[active]
    rows = np.empty((active.size, x.size))
    for i in dict.fromkeys(owner.tolist()):
        mine = owner == i
        rows[mine] = cs.members[i].jacobian(x)[local[mine]]
    return rows


class DenseRows:
    """A row block held as its (n, d) rows."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def at(self, cols) -> np.ndarray:
        return self.rows[:, cols]

    def dense(self) -> np.ndarray:
        return self.rows

    def gram(self) -> np.ndarray:
        return self.rows @ self.rows.T

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.rows.T @ y


class CoordinateRows:
    """A row block whose row i is coef[i] on column cols[i] and zero
    elsewhere, in dimension d."""

    def __init__(self, cols: np.ndarray, coef: np.ndarray, d: int):
        self.cols = cols
        self.coef = coef
        self.d = d

    def at(self, cols) -> np.ndarray:
        return np.where(self.cols[:, None] == cols, self.coef[:, None], 0.0)

    def dense(self) -> np.ndarray:
        return self.at(np.arange(self.d))

    def gram(self) -> np.ndarray:
        return _cross(self, self)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.coef * y, minlength=self.d)


def _cross(p, q) -> np.ndarray:
    """The cross block P Q^T of two row blocks. With a coordinate block on
    either side each entry is one product, exactly the dense dot product;
    two other blocks fall back to their dense rows."""
    if isinstance(q, CoordinateRows):
        return p.at(q.cols) * q.coef
    if isinstance(p, CoordinateRows):
        return (q.at(p.cols) * p.coef).T
    return p.dense() @ q.dense().T


class ActiveRows:
    """The Jacobian J of one state's listed faces, held as one row block per
    run of faces owned by the same member and never stacked into one matrix:
    gram() is J J^T and rmatvec(y) is J^T y, for the J that
    jacobian_active(cs, x, active) stacks densely.
    """

    def __init__(self, cs: ConstraintSet, x: np.ndarray, active: np.ndarray):
        if len(active) == 0:
            raise ValueError("ActiveRows requires a nonempty active list")
        owner = cs._face_owner[active]
        local = cs._face_local[active]
        bounds = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), len(active)]
        self._spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self._blocks = [cs.members[owner[s.start]].row_block(x, local[s]) for s in self._spans]
        self._n = len(active)

    def gram(self) -> np.ndarray:
        out = np.empty((self._n, self._n))
        for i, (si, p) in enumerate(zip(self._spans, self._blocks)):
            out[si, si] = p.gram()
            for sj, q in zip(self._spans[i + 1:], self._blocks[i + 1:]):
                out[si, sj] = cross = _cross(p, q)
                out[sj, si] = cross.T
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return sum(block.rmatvec(y[s]) for s, block in zip(self._spans, self._blocks))


def hinge_max(vals: np.ndarray) -> float:
    """Largest hinge residual max(0, max vals) of face values; 0.0 for none."""
    return float(max(0.0, vals.max())) if vals.size else 0.0


def max_violation(cs: ConstraintSet, x) -> float | np.ndarray:
    """Largest hinge residual max(0, max face): a float for one state (d,),
    a (B,) array for a batch (B, d), each entry bitwise the value of its row
    alone. 0.0 when feasible or the set is empty; a largest face of -0.0
    reads +0.0."""
    vals = cs.face_values(x)
    if vals.ndim == 1:
        return hinge_max(vals)
    if not vals.shape[1]:
        return np.zeros(len(vals))
    # On a tie np.maximum returns its second argument, so 0.0 goes last.
    return np.maximum(vals.max(axis=1), 0.0)
