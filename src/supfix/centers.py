"""Relative centers of point clouds and certificate checking.

For a bounded set M in the sup-norm space, the center built here is the
fiberwise smallest-enclosing-ball center.  It has two properties, both
with a constant c < 1 relative to diam(M):

  (i)  every point of M is within c * diam(M) of the center;
  (ii) the center is within c * diam(M) of any point y whose
       c * diam(M)-ball contains M.

Property (ii) follows from a Hilbert-space identity: if B(z, r) is the
smallest ball enclosing a fiber of M and B(y, R) also encloses it, then
|y - z|^2 <= R^2 - r^2.  `verify_urns_certificate` checks both properties
numerically against sampled ball centers y.

A fiber that is the negation of an earlier fiber is not solved again.
If fiber g's points equal, point for point as floats, the negated points
of an earlier fiber i, and center_i has no coordinate equal to zero, the
center of fiber g is -center_i.  These are the bytes `seb_center` gives
for fiber g, because it is odd: round-to-nearest commutes with negation
(fl(-a - -b) = -fl(a - b), (-a)(-b) = ab, (-x) ** 2 = x ** 2), so on the
negated points the spread, the dedup keys, the visit order, every inside
test and every Gram system are the same, LAPACK returns the same lambda,
and each center coordinate comes out negated.  Zeros are the exception:
a coordinate summed to exactly zero is 0.0 on both sides, and one copied
from an input point (a single distinct point) keeps the input's signed
zero, so a partner center with a zero coordinate is never used.  Input
zeros whose sign differs between fiber g and -fiber i change no other
float, since every sum starts from 0.0.  A group that holds -I maps the
orbit of the origin to fibers fiber(-w) = -fiber(w), so this skips
about 40% of the enclosing balls of the 2T, 2O, 2I and B3 witness
models.

Radii and gaps are sup-distances over whole difference stacks, taken
by `spaces._fiber_distances` with one max over each stack's flattened fiber
axes, so every value is the float `sup_distance` gives for its pair.
Radii are taken in blocks of centers whose differences fill about
`spaces._BLOCK_BYTES`, the package's one block budget, whatever the sample
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError
from .seb import seb_center
from .spaces import _BLOCK_BYTES, PointCloud, SupPoint, _fiber_distances, cloud_diameter
# The reductions below compute sup_distance over whole arrays; the name stays
# bound here because the perfbench tracer wraps and restores `centers.sup_distance`.
from .spaces import sup_distance  # noqa: F401

# Slack added to the bound c * diam before radii and gaps are compared with it.
_CERTIFICATE_TOL = 1e-10


def urns_center(cloud: PointCloud) -> SupPoint:
    """Fiberwise smallest-enclosing-ball center of the cloud.

    For k = 1 this reduces to the bounding-box midpoint.  A fiber whose
    points are, point for point, the negated points of an earlier fiber i
    whose center has no zero coordinate takes -center_i instead of a
    `seb_center` call.  These are the bytes `seb_center` gives for that
    fiber, and a zero coordinate is where they could differ in sign (see
    the module docstring).  Every other fiber is solved.
    """
    if len(cloud) == 0:
        raise EmptyDomainError("cannot center an empty cloud")
    pts = cloud.points  # (N, m, k)
    # Each fiber as one contiguous (N, k) block with -0.0 read as 0.0, and
    # its negation (0.0 - 0.0 is 0.0): the points are finite, so equal bytes
    # mean equal floats.  Fiber g's key is bytes [g * size, (g + 1) * size).
    keys = np.add(pts.transpose(1, 0, 2), 0.0, order="C")
    size = keys[0].nbytes
    key_bytes, mirror_bytes = keys.tobytes(), np.subtract(0.0, keys).tobytes()
    fibers = []  # the centers as lists of floats; -x is np.negative's float
    mirrored = {}  # bytes of -fiber i -> i, for centered fibers i with no zero coordinate
    for g in range(pts.shape[1]):
        i = mirrored.get(key_bytes[g * size:(g + 1) * size])
        if i is None:
            center = seb_center(pts[:, g, :])[0].tolist()
        else:
            center = [-x for x in fibers[i]]
        fibers.append(center)
        if all(center):
            mirrored[mirror_bytes[g * size:(g + 1) * size]] = g
    return SupPoint._trusted(np.array(fibers))  # new (m, k) floats of finite balls


def _in_space(cloud_pts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """points, an (m, k) point or an (S, m, k) stack, checked to live in the
    space of the (N, m, k) cloud."""
    if points.shape[-2:] != cloud_pts.shape[1:]:
        raise SpaceMismatchError(
            f"points live in different spaces: {points.shape[-2:]} vs {cloud_pts.shape[1:]}"
        )
    return points


def _radii(cloud_pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """center_radius of each of the (S, m, k) centers against the (N, m, k) cloud."""
    rows = max(1, _BLOCK_BYTES // cloud_pts.nbytes)
    out = np.empty(len(centers))
    for s in range(0, len(centers), rows):
        norms = _fiber_distances(centers[s:s + rows, np.newaxis], cloud_pts)  # (rows, N, m)
        out[s:s + rows] = norms.reshape(len(norms), -1).max(axis=1)
    return out


def center_radius(cloud: PointCloud, z: SupPoint) -> float:
    """max over x in the cloud of d_sup(z, x)."""
    if len(cloud) == 0:
        raise EmptyDomainError("an empty cloud has no radius")
    pts = cloud.points
    return float(_radii(pts, _in_space(pts, z.fibers)[np.newaxis])[0])


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    constant: float
    diameter: float
    radius: float
    worst_center_gap: float
    checked_samples: int
    rejected_samples: int

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "constant": self.constant,
            "diameter": self.diameter,
            "radius": self.radius,
            "worst_center_gap": self.worst_center_gap,
            "checked_samples": self.checked_samples,
            "rejected_samples": self.rejected_samples,
        }


def verify_urns_certificate(
    cloud: PointCloud,
    z: SupPoint,
    c: float,
    y_samples: PointCloud,
) -> CertificateReport:
    """Check the two relative-center properties of z for the cloud at constant c,
    challenged by the ball centers in y_samples (a cloud of the same space).

    Samples whose ball of radius c * diam does not actually contain the
    cloud are counted as rejected rather than failing the certificate;
    they do not witness anything.  The radii of z and of every sample
    come from one blocked reduction of the (samples + 1, N, m, k)
    differences, and the worst gap from one max over the fiber distances
    of the (checked, m, k) differences y - z.
    """
    diam = cloud_diameter(cloud)
    bound = c * diam + _CERTIFICATE_TOL
    pts = cloud.points
    ys = _in_space(pts, y_samples.points)
    radii = _radii(pts, np.concatenate([_in_space(pts, z.fibers)[np.newaxis], ys]))
    radius = float(radii[0])
    diff = ys[~(radii[1:] > bound)]
    checked = len(diff)
    worst_gap = float(_fiber_distances(diff, z.fibers, out=diff).max(initial=0.0))
    return CertificateReport(
        ok=bool(radius <= bound and not worst_gap > bound),
        constant=c,
        diameter=diam,
        radius=radius,
        worst_center_gap=worst_gap,
        checked_samples=checked,
        rejected_samples=len(ys) - checked,
    )
