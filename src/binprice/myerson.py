"""Revenue objective support: discrete ironed virtual values.

The revenue curve of a finite distribution is the set of points
``(q_i, q_i * v_i)`` in quantile space with ``q_i = Pr[v >= v_i]`` (weak
tail), plus the origin.  Ironing takes the upper concave envelope of these
points; the ironed virtual value of an atom is the slope of the envelope
segment covering its quantile interval, which is non-increasing in the
quantile and therefore non-decreasing in the value.  Replacing every atom's
value by its ironed virtual value (merging collided atoms) turns a
revenue-maximization instance into a welfare-maximization one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    DiscreteDistribution,
    InstanceError,
    LaminarInstance,
    ProductionInstance,
    distribution_violations,
)


@dataclass(frozen=True)
class IronedTransform:
    """Per-atom ironed virtual values phi for one distribution, ascending
    with the source atoms."""

    source: DiscreteDistribution
    ironed: tuple[float, ...]


def iron(dist: DiscreteDistribution) -> IronedTransform:
    """Ironed virtual value per atom via revenue-curve concavification.

    Rejects negative values: quantile-space revenue curves only make sense
    for non-negative supports.
    """
    errs = distribution_violations(dist)
    if errs:
        raise InstanceError(errs)
    if dist.atoms[0][0] < 0:
        raise ValueError("ironing requires non-negative values")
    k = len(dist.atoms)
    # weak-tail quantiles, ascending in q (descending in value)
    q = [0.0] * (k + 1)  # q[i] = Pr[v >= value of atom k-i]; q[0] = 0
    points = [(0.0, 0.0)]
    acc = 0.0
    for i in range(k - 1, -1, -1):
        v, p = dist.atoms[i]
        acc += p
        q[k - i] = acc
        if acc > points[-1][0]:  # a point adding no quantile adds no segment
            points.append((acc, acc * v))
    hull = _upper_concave_hull(points)
    slopes = _segment_slopes(hull)
    ironed = [0.0] * k
    for i in range(k):  # atom i occupies quantile interval (q[k-i-1], q[k-i]]
        ironed[i] = _slope_at(hull, slopes, q[k - i])
    return IronedTransform(source=dist, ironed=tuple(ironed))


def _upper_concave_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it does not bend downward
            if (y1 - y0) * (pt[0] - x1) <= (pt[1] - y1) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _segment_slopes(hull):
    return [(y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(hull, hull[1:])]


def _slope_at(hull, slopes, q):
    """Slope of the hull segment whose interval ``(x0, x1]`` contains q."""
    for seg, ((x0, _), (x1, _)) in enumerate(zip(hull, hull[1:])):
        if x0 < q <= x1:
            return slopes[seg]
    return slopes[-1]


def iron_distribution(dist: DiscreteDistribution) -> DiscreteDistribution:
    """Replace atom values by their ironed virtual values, merging collisions."""
    tr = iron(dist)
    merged = []
    for phi, (_, p) in zip(tr.ironed, dist.atoms):
        if merged and merged[-1][0] == phi:
            merged[-1][1] += p
        else:
            merged.append([phi, p])
    return DiscreteDistribution.of(merged)


def revenue_transform(instance):
    """Instance with every value replaced by its ironed virtual value.

    Shape, probabilities and all capacity constraints are unchanged; only
    the supports move (and equal ironed values merge).
    """
    dists = tuple(iron_distribution(d) for d in instance.dists)
    if isinstance(instance, ProductionInstance):
        return ProductionInstance(dists=dists, types=instance.types,
                                  days=instance.days,
                                  production=instance.production,
                                  shipping=instance.shipping)
    if isinstance(instance, LaminarInstance):
        return LaminarInstance.build(dists, instance.to_tree())
    raise InstanceError(f"instance: unsupported type {type(instance).__name__}")
