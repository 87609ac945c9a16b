"""Cubic B-spline bases: knot construction, evaluation, curvature penalty.

Evaluation uses the standard stable recurrence (triangular scheme over the
nonzero functions of the containing knot span), and the design is held as
its band (:class:`BasisDesign`): each site's ``order`` values and first
column, from which every product with the design is formed.  The curvature
penalty is assembled span by span into its lower band, the only form kept:
a cubic's second derivative is linear on every span, so each span's
products integrate exactly in closed form from the values at the span ends.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvalidBasisError,
    InvalidDomainError,
    InvalidGridError,
    UnsupportedOrderError,
)

DEFAULT_ORDER = 4


@dataclass(frozen=True)
class KnotVector:
    """Nondecreasing knot sequence defining ``num_basis`` splines of ``order``."""

    knots: np.ndarray
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1:
            raise InvalidBasisError("knots must be a one-dimensional sequence")
        if not np.all(np.isfinite(knots)):
            raise InvalidBasisError("knots must be finite")
        if self.order < 1:
            raise InvalidBasisError("order must be a positive integer")
        if knots.size < 2 * self.order:
            raise InvalidBasisError(
                f"need at least {2 * self.order} knots for order {self.order}, "
                f"got {knots.size}"
            )
        if np.any(np.diff(knots) < 0):
            raise InvalidBasisError("knots must be nondecreasing")
        _, counts = np.unique(knots, return_counts=True)
        if np.any(counts > self.order):
            raise InvalidBasisError("knot multiplicity may not exceed the order")
        if knots[self.order - 1] >= knots[-self.order]:
            raise InvalidDomainError("knot vector has an empty evaluation domain")
        knots = knots.copy()
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def num_basis(self) -> int:
        return self.knots.size - self.order

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.order - 1]), float(self.knots[-self.order])


@dataclass(frozen=True)
class PenaltyMatrix:
    """Symmetric PSD matrix of pairwise second-derivative inner products.

    Held as its lower band: ``band[i, q]`` is entry ``(i + q, i)`` (zero
    past the last row), the LAPACK lower storage.  The band is a read-only
    copy, so the same array is the same penalty.
    """

    band: np.ndarray

    def __post_init__(self) -> None:
        band = np.array(self.band, dtype=float)
        if band.ndim != 2 or not 0 < band.shape[1] <= band.shape[0]:
            raise InvalidBasisError("penalty band must be a (K, p + 1) array, p < K")
        band.flags.writeable = False
        object.__setattr__(self, "band", band)


def make_knots(domain: tuple[float, float], num_basis: int) -> KnotVector:
    """Clamped cubic knot vector on ``domain`` with uniform interior knots.

    Boundary knots get multiplicity four; the remaining ``num_basis - 4``
    knots are spaced evenly inside the domain.
    """
    a, b = float(domain[0]), float(domain[1])
    if a >= b:
        raise InvalidDomainError(f"domain must satisfy A < B, got [{a}, {b}]")
    order = DEFAULT_ORDER
    if num_basis < order:
        raise InvalidBasisError(
            f"num_basis must be at least order ({order}), got {num_basis}"
        )
    interior = np.linspace(a, b, num_basis - order + 2)[1:-1]
    return KnotVector(np.concatenate([np.full(order, a), interior,
                                      np.full(order, b)]))


def knots_from_grid(grid: np.ndarray) -> KnotVector:
    """Cubic smoothing-spline knots: every observation site is a knot.

    The first and last sites become boundary knots of multiplicity four,
    so the dimension is ``len(grid) + 2``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidGridError("grid must hold at least two sites")
    if np.any(np.diff(grid) <= 0):
        raise InvalidGridError("grid sites must be strictly increasing")
    order = DEFAULT_ORDER
    return KnotVector(np.concatenate([np.full(order, grid[0]), grid[1:-1],
                                      np.full(order, grid[-1])]))


def _padded(knots: np.ndarray, order: int) -> tuple[np.ndarray, int]:
    # Extra end copies give the recurrence room near the boundary without
    # changing any original function (each spline only sees its own knots).
    pad = order - 1
    padded = np.concatenate(
        [np.full(pad, knots[0]), knots, np.full(pad, knots[-1])]
    )
    return padded, pad


def _span_indices(knots_p: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Nonempty span containing each x; exact right endpoints map to the
    # last nonempty span so endpoint values come out right.
    lo = np.searchsorted(knots_p, knots_p[0], side="right") - 1
    hi = np.searchsorted(knots_p, knots_p[-1], side="left") - 1
    return np.clip(np.searchsorted(knots_p, x, side="right") - 1, lo, hi)


def _nonzero_triangle(knots_p: np.ndarray, order: int, span: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Values of the ``order`` possibly-nonzero splines at each x."""
    n = x.size
    values = np.zeros((n, order))
    values[:, 0] = 1.0
    left = np.zeros((n, order))
    right = np.zeros((n, order))
    for q in range(1, order):
        left[:, q] = x - knots_p[span + 1 - q]
        right[:, q] = knots_p[span + q] - x
        saved = np.zeros(n)
        for i in range(q):
            term = values[:, i] / (right[:, i + 1] + left[:, q - i])
            values[:, i] = saved + right[:, i + 1] * term
            saved = left[:, q - i] * term
        values[:, q] = saved
    return values


def _inverse_widths(knots: np.ndarray, q: int) -> np.ndarray:
    """``1 / (t[j+q] - t[j])`` per ``j``, zero where the width is zero."""
    width = knots[q:] - knots[:-q]
    return np.divide(1.0, width, out=np.zeros_like(width), where=width > 0)


@dataclass(frozen=True, eq=False)
class BasisDesign:
    """A (T, K) B-spline design held as its band.

    Site ``n`` sees at most ``order`` functions, the consecutive columns
    ``first[n] .. first[n] + order - 1`` (``columns[n]``), whose values are
    ``values[n]`` (zero where a column holds no function).  Every product
    with the design gathers or scatters these (T, order) values by
    ``columns``, so no (T, K) array is formed except by :meth:`dense`.
    """

    values: np.ndarray
    first: np.ndarray
    num_basis: int
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns",
                           self.first[:, None] + np.arange(self.values.shape[1]))

    @property
    def num_sites(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        """Half-bandwidth of ``B'B``, at least 1: the widest span of nonzero
        columns at one site (3 for a cubic basis, 2 when every site is a
        knot)."""
        seen = self.values != 0
        spans = (self.values.shape[1] - 1 - seen[:, ::-1].argmax(axis=1)
                 - seen.argmax(axis=1))
        return max(int(spans.max()), 1)

    def gram_band(self, width: int) -> np.ndarray:
        """Lower band of ``B'B`` to half-bandwidth ``width``, (K, width + 1):
        ``band[i, q]`` is entry ``(i + q, i)`` (zero past the last row)."""
        band = np.zeros((self.num_basis, width + 1))
        order = self.values.shape[1]
        for q in range(min(width, order - 1) + 1):
            band[:, q] = np.bincount(
                self.columns[:, :order - q].ravel(),
                (self.values[:, :order - q] * self.values[:, q:]).ravel(),
                minlength=self.num_basis)
        return band

    def left_multiply(self, x: np.ndarray) -> np.ndarray:
        """``x @ B`` for ``x`` of shape (..., T): (..., K)."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, self.num_sites, 1)
        size = len(rows) * self.num_basis
        index = self.columns if len(rows) == 1 else (
            np.arange(0, size, self.num_basis)[:, None, None] + self.columns)
        out = np.bincount(index.ravel(), (rows * self.values).ravel(), minlength=size)
        return out.reshape(x.shape[:-1] + (self.num_basis,))

    def evaluate(self, coef: np.ndarray) -> np.ndarray:
        """``coef @ B'``: the curves with coefficients ``coef`` (..., K) at
        the sites, (..., T)."""
        coef = np.asarray(coef, dtype=float)
        return np.einsum("...tj,tj->...t", coef[..., self.columns], self.values)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Dense rows ``start .. stop - 1`` of the design, (stop - start, K)."""
        out = np.zeros((stop - start, self.num_basis))
        np.put_along_axis(out, self.columns[start:stop], self.values[start:stop],
                          axis=1)
        return out

    def dense(self) -> np.ndarray:
        """The (T, K) design as one array."""
        return self.rows(0, self.num_sites)


def design_matrix(kv: KnotVector, grid: np.ndarray) -> BasisDesign:
    """The basis values at each grid site, as a :class:`BasisDesign`; rows
    sum to one."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidGridError("grid must be a nonempty one-dimensional array")
    if np.any(np.diff(grid) <= 0):
        raise InvalidGridError("grid must be strictly increasing without duplicates")
    a, b = kv.domain
    if grid[0] < a or grid[-1] > b:
        raise DomainError(
            f"grid range [{grid[0]}, {grid[-1]}] outside basis domain [{a}, {b}]"
        )
    order, k = kv.order, kv.num_basis
    knots_p, pad = _padded(kv.knots, order)
    span = _span_indices(knots_p, grid)
    values = _nonzero_triangle(knots_p, order, span, grid)
    # Span s carries padded functions s - order + 1 .. s.  At the right end
    # of an unclamped knot vector's domain the span reaches past the last
    # basis function: shift the window back inside and drop those values.
    first = span - order + 1 - pad
    shift = np.clip(first, 0, k - order) - first
    if np.any(shift):
        old = np.arange(order) + shift[:, None]
        inside = (old >= 0) & (old < order)
        values = np.where(inside, np.take_along_axis(
            values, np.clip(old, 0, order - 1), axis=1), 0.0)
        first = first + shift
    values.flags.writeable = False
    first.flags.writeable = False
    return BasisDesign(values, first, k)


def cached_design_matrix(kv: KnotVector, grid: np.ndarray) -> BasisDesign:
    """:func:`design_matrix`, shared through ``kv`` while it is in use.

    ``kv`` keeps the latest grid and a weak reference to its design, so
    callers that hold the design (an aggregated design, a GLS system)
    share it with everyone else evaluating the same knots on the same
    grid values, such as the held-out predictions of a jackknife, and the
    cache never keeps the design alive by itself.
    """
    grid = np.asarray(grid, dtype=float)
    cached = kv.__dict__.get("_design")
    b = None
    if cached is not None and np.array_equal(cached[0], grid):
        b = cached[1]()
    if b is None:
        b = design_matrix(kv, grid)
        object.__setattr__(kv, "_design", (grid.copy(), weakref.ref(b)))
    return b


def penalty_matrix(kv: KnotVector) -> PenaltyMatrix:
    """Integrated products of second derivatives over the domain.

    Only cubic bases are supported.  The second derivative of cubic ``i``
    is ``a0[i] N_i + a1[i] N_(i+1) + a2[i] N_(i+2)`` in the linear
    B-splines ``N_j`` (the knot-difference formula applied twice), so on
    each knot span it is linear, fixed by its values at the two span ends.
    The exact integral over a span of width ``h`` of two such lines with
    end values ``(u, v)`` and ``(u', v')`` is
    ``h/6 ((2u + v) u' + (u + 2v) v')``.  The four cubics alive on a span
    give that span's 4-by-4 block, whose lower half is added into the band
    ``band[i, d] = R[i + d, i]``, ``d = 0 .. 3``.
    """
    if kv.order != 4:
        raise UnsupportedOrderError(
            f"curvature penalty requires cubic splines (order 4), got {kv.order}"
        )
    t = kv.knots
    k = kv.num_basis
    inv2, inv3 = _inverse_widths(t, 2), _inverse_widths(t, 3)
    a0 = 6.0 * inv3[:k] * inv2[:k]
    a1 = -6.0 * inv2[1:k + 1] * (inv3[:k] + inv3[1:k + 1])
    a2 = 6.0 * inv3[1:k + 1] * inv2[2:k + 2]
    # Spans s = 3 .. k-1 tile the domain; cubics s-3 .. s live on span s.
    # Entry p of ``left`` / ``right``, a view, is cubic s-3+p at the span ends.
    spans = k - 3
    zero = np.zeros(spans)
    left = [a2[:spans], a1[1:spans + 1], a0[2:spans + 2], zero]
    right = [zero, a2[1:spans + 1], a1[2:spans + 2], a0[3:spans + 3]]
    h = (t[4:k + 1] - t[3:k]) / 6.0
    band = np.zeros((k, 4))
    for d in range(4):
        for p in range(4 - d):
            band[p:p + spans, d] += h * ((2.0 * left[p] + right[p]) * left[p + d]
                                         + (left[p] + 2.0 * right[p]) * right[p + d])
    return PenaltyMatrix(band)
