"""Weighted point sets: validation, normalization, grouping repeats, finiteness classification.

A distribution is a set of n support points in d dimensions with non-negative
masses. Weights are accepted as counts or masses; ``wasserstein_distance``
divides each side's weights by their total once before any distance is
computed, so both marginals of the transport problem always balance: by
``normalize`` on the LP path and for the 1D plan, and in the sort of
``cdf1d`` for the 1D distance.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeWeightError,
    ShapeError,
    WeightLengthError,
    WeightSumError,
)

__all__ = [
    "DiscreteDistribution",
    "Finiteness",
    "as_float_array",
    "validate",
    "normalize",
    "merge_duplicates",
    "classify_finiteness",
]


@dataclass(frozen=True)
class DiscreteDistribution:
    """n weighted points in d dimensions.

    ``points`` has shape (n, d), ``weights`` shape (n,), every weight
    non-negative, as given: ``normalize`` returns the distribution scaled to
    total mass one. Read-only by construction: the constructor takes over
    the arrays it is given and makes them read-only, so every instance, one
    made by ``dataclasses.replace`` included, has read-only arrays. Pass
    arrays no one else writes to; all operations return new instances.
    ``validate`` passes read-only views of the caller's float64 arrays, so
    its instances read the caller's memory: the caller's arrays stay
    writeable, and a write to them shows in the instance.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def as_float_array(values, error, name: str) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one already.

    Raises ``error``, a ValidationError subclass, for values that are not
    real numbers: a complex array would lose its imaginary part. An int
    past the float range is not one either.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError("complex values are not real numbers")
        return arr.astype(np.float64, copy=False)
    except (ValueError, TypeError, OverflowError) as exc:
        raise error(f"{name} is not a real numeric array: {exc}") from None


def validate(points, weights=None) -> DiscreteDistribution:
    """Check raw arrays and build a distribution.

    1D point input is reshaped to (n, 1). Missing weights are synthesized as
    uniform. Raises ShapeError for inputs that are not 1D/2D arrays of real
    numbers, WeightLengthError / NegativeWeightError / WeightSumError for bad
    weights.

    Nothing is copied that is float64 already: the distribution holds
    read-only views of the caller's float64 arrays, strided ones included,
    and shares their memory, while the caller's own arrays keep their flags.
    Do not write to them while the distribution is in use. Other input (ints,
    lists, other float types or byte orders) is converted into fresh arrays.
    """
    pts = as_float_array(points, ShapeError, "points")
    if pts.ndim > 2:
        raise ShapeError(f"points must be a 1D or 2D array, got {pts.ndim} axes")
    if pts.ndim == 0:
        raise ShapeError("points must be a non-empty 1D or 2D array, got a scalar")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        raise ShapeError("points must contain at least one observation")
    if pts.shape[1] == 0:
        raise ShapeError("points must have at least one coordinate per observation")

    n = pts.shape[0]
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = as_float_array(weights, WeightLengthError, "weights")
        if w.ndim != 1 or w.shape[0] != n:
            raise WeightLengthError(
                f"weights must be a flat array of length {n}, got shape {w.shape}"
            )
        if np.any(w < 0):
            raise NegativeWeightError("weights must be non-negative")
        # a sum past the float maximum is inf, which the check below rejects
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if not np.isfinite(total) or total <= 0:
            raise WeightSumError(f"weight sum must be positive and finite, got {total}")

    # views, so that making them read-only leaves the caller's flags alone
    return DiscreteDistribution(pts.view(), w.view())


def normalize(dist: DiscreteDistribution) -> DiscreteDistribution:
    """Scale weights to total mass one; points are untouched.

    Divides on every call, so a second call may move a weight by an ulp:
    normalize a distribution once.
    """
    return DiscreteDistribution(dist.points, dist.weights / dist.weights.sum())


def merge_duplicates(points: np.ndarray):
    """Group identical rows of ``points``, shape (n, d).

    Returns ``(merged, group)``: ``merged`` holds each distinct row once, in
    order of first occurrence, and ``group[x]`` is the index in ``merged`` of
    row x. With no repeated row, returns ``points`` itself and the identity
    map. Rows are identical when they compare equal coordinate for
    coordinate, so 0.0 and -0.0 merge, at the first occurrence's coordinates.
    """
    # a stable sort puts identical rows next to each other, each run in input order
    order = np.lexsort(points.T)
    ranked = points[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    if starts.all():
        return points, np.arange(order.size, dtype=np.intp)
    # each run's first occurrence; runs are numbered in the order of these
    firsts = order[starts]
    kept = np.zeros(order.size, dtype=bool)
    kept[firsts] = True
    group = np.empty_like(order)
    group[order] = (np.cumsum(kept) - 1)[firsts][np.cumsum(starts) - 1]
    return points[kept], group


class Finiteness(enum.Enum):
    """Whether a distance is computable, infinite, or undefined."""

    FINITE = "finite"
    INFINITE = "infinite"
    UNDEFINED = "undefined"


def classify_finiteness(u: DiscreteDistribution, v: DiscreteDistribution, flat: bool = False) -> Finiteness:
    """Classify a pair of distributions by their special coordinate values.

    Any NaN coordinate makes the distance undefined. Infinite coordinates on
    exactly one side force an infinite distance. With infinities on both
    sides, points in several dimensions give an undefined distance, as in
    SciPy's ``wasserstein_distance_nd``. ``flat`` samples follow SciPy's 1D
    ``wasserstein_distance``: undefined only where the same infinity, sign
    and all, lies on both sides, and infinite otherwise, since mass at an
    infinity the other side lacks moves an infinite distance.
    """
    u_nan, u_inf = _special_values(u.points)
    v_nan, v_inf = _special_values(v.points)
    if u_nan or v_nan or (u_inf and v_inf and (not flat or _infinities(u) & _infinities(v))):
        return Finiteness.UNDEFINED
    if u_inf or v_inf:
        return Finiteness.INFINITE
    return Finiteness.FINITE


def _infinities(dist: DiscreteDistribution) -> set:
    """The infinite coordinate values of ``dist``: a subset of {-inf, inf}."""
    return set(dist.points[np.isinf(dist.points)].tolist())


def _special_values(points: np.ndarray):
    """(has a NaN, has an infinity): one pass over all-finite points, three otherwise."""
    if np.isfinite(points).all():
        return False, False
    return bool(np.isnan(points).any()), bool(np.isinf(points).any())
