"""Declarative constraints on clean samples, with their face values and Jacobians.

A constraint contributes one or more scalar faces g_j(x); the feasible set
is {x : g_j(x) <= 0 for all j}. Every family below, and ConstraintSet,
implements one interface:

- face_values(x) takes one state (d,) or a batch (B, d) and returns
  (n_faces,) or (B, n_faces); each row of a batch is bitwise the value of
  that row evaluated alone;
- jacobian(x) gives the gradient rows of one state as an (n_faces, d) matrix;
- project(x), on the families with has_closed_projection, is the exact
  Euclidean projection of one state.

Hinge residuals, active faces and the maximum violation are all read off
face_values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GradientSingularityError, NumericalError
from .numerics import stream_rng

__all__ = [
    "LinearIneq",
    "LinearBand",
    "MinDistance",
    "SmoothScalar",
    "ConstraintSet",
    "jacobian_active",
    "hinge_max",
    "max_violation",
]

_FD_STEP = 1e-6
_FD_RTOL = 1e-5
_PROBE_SEED = 0x5EED_CAFE  # fixed stream for construction-time gradient probes


def _unit_or_raise(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"coefficient vector must be 1-D and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient vector must be finite")
    if np.linalg.norm(a) == 0.0:
        raise ValueError("coefficient vector must be nonzero")
    return a


@dataclass(frozen=True)
class LinearIneq:
    """Halfspace a.x <= b."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _unit_or_raise(self.a))
        object.__setattr__(self, "b", float(self.b))
        if np.isnan(self.b):
            raise ValueError("halfspace bound must not be NaN")

    @property
    def dim(self):
        return self.a.size

    n_faces = 1
    has_closed_projection = True

    def face_values(self, x: np.ndarray) -> np.ndarray:
        return (np.vecdot(x, self.a) - self.b)[..., None]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.a[None, :].copy()

    def project(self, x: np.ndarray) -> np.ndarray:
        s = float(self.a @ x) - self.b
        if s <= 0.0:
            return np.array(x, dtype=float)
        return x - (s / float(self.a @ self.a)) * self.a


@dataclass(frozen=True)
class LinearBand:
    """Slab lo <= a.x <= hi; face 0 is the lower side, face 1 the upper."""

    a: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "a", _unit_or_raise(self.a))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo <= self.hi:
            raise ValueError(f"band requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def dim(self):
        return self.a.size

    n_faces = 2
    has_closed_projection = True

    def face_values(self, x: np.ndarray) -> np.ndarray:
        s = np.vecdot(x, self.a)
        return np.array([self.lo - s, s - self.hi]).T

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.array([-self.a, self.a])

    def project(self, x: np.ndarray) -> np.ndarray:
        s = float(self.a @ x)
        c = min(max(s, self.lo), self.hi)
        if c == s:
            return np.array(x, dtype=float)
        return x + ((c - s) / float(self.a @ self.a)) * self.a


@dataclass(frozen=True)
class MinDistance:
    """Keep-out ball: ||x[subset] - center|| >= radius (nonconvex).

    coord_subset selects which coordinates the distance is measured over;
    None means all of them.
    """

    center: np.ndarray
    radius: float
    coord_subset: tuple | None = None

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite 1-D vector")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
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
        if dist == 0.0:
            raise GradientSingularityError("min-distance gradient undefined at the center")
        grad = np.zeros_like(np.asarray(x, dtype=float))
        if self.coord_subset is None:
            grad[:] = -diff / dist
        else:
            grad[list(self.coord_subset)] = -diff / dist
        return grad[None, :]


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


CONSTRAINT_KINDS = (LinearIneq, LinearBand, MinDistance, SmoothScalar)


@dataclass(frozen=True)
class ConstraintSet:
    """Immutable conjunction of constraints with a feasibility tolerance."""

    members: tuple
    tol: float = 1e-8

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


def jacobian_active(cs: ConstraintSet, x, active: list[int]) -> np.ndarray:
    """Gradient rows of the listed faces, one row per active face.

    Each member owning an active face has its Jacobian evaluated once, and
    the active rows are gathered from it.
    """
    if len(active) == 0:
        raise ValueError("jacobian_active requires a nonempty active list")
    x = _check_point(cs, x)
    if x.ndim != 1:
        raise ValueError(f"jacobian_active takes one state (d,), got shape {x.shape}")
    jacobians = {}
    rows = []
    for face in active:
        i, j = cs.faces[int(face)]
        if i not in jacobians:
            jacobians[i] = cs.members[i].jacobian(x)
        rows.append(jacobians[i][j])
    return np.stack(rows)


def hinge_max(vals: np.ndarray) -> float:
    """Largest hinge residual max(0, max vals) of face values; 0.0 for none."""
    return float(max(0.0, vals.max())) if vals.size else 0.0


def max_violation(cs: ConstraintSet, x) -> float:
    """Largest hinge residual; 0.0 when feasible or the set is empty."""
    return hinge_max(cs.face_values(x))
