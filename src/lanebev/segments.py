"""Lane segment type and polyline helpers shared by dataset, heads and eval."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

CLASS_BACKGROUND = 0
CLASS_LANE = 1
CLASS_CROSSWALK = 2
CLASS_NAMES = {CLASS_BACKGROUND: "background", CLASS_LANE: "lane", CLASS_CROSSWALK: "crosswalk"}


def fields_equal(self, other):
    """``__eq__`` for a dataclass holding numpy arrays: every field takes part,
    and an array compares with ``np.array_equal``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        if not (np.array_equal(a, b) if arrays else a == b):
            return False
    return True


@dataclass
class LaneSegment:
    """One lane instance in ego-frame meters.

    centerline / left_boundary / right_boundary: [P,2] arrays of ordered
    points; class_id 0 is background (used only for predictions), 1 lane,
    2 pedestrian crossing.
    """

    centerline: np.ndarray
    left_boundary: np.ndarray
    right_boundary: np.ndarray
    class_id: int
    score: float = 1.0

    __eq__ = fields_equal


def arclength(poly: np.ndarray) -> np.ndarray:
    """Cumulative arc length per vertex, starting at 0."""
    d = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(d)])


def resample_polyline(poly: np.ndarray, n: int) -> np.ndarray:
    """n points spaced uniformly in arc length along the polyline."""
    s = arclength(poly)
    total = s[-1]
    if total <= 0:
        return np.repeat(poly[:1], n, axis=0)
    targets = np.linspace(0.0, total, n)
    x = np.interp(targets, s, poly[:, 0])
    y = np.interp(targets, s, poly[:, 1])
    return np.stack([x, y], axis=1)


def densify_polyline(poly: np.ndarray, step: float) -> np.ndarray:
    total = arclength(poly)[-1]
    n = max(2, int(np.ceil(total / step)) + 1)
    return resample_polyline(poly, n)


def polyline_normals(poly: np.ndarray) -> np.ndarray:
    """Unit left normals from central-difference tangents."""
    t = np.gradient(poly, axis=0)
    norm = np.linalg.norm(t, axis=1, keepdims=True)
    t = t / np.maximum(norm, 1e-12)
    return np.stack([-t[:, 1], t[:, 0]], axis=1)


def longest_run_inside(poly: np.ndarray, x_min, x_max, y_min, y_max) -> np.ndarray | None:
    """Longest contiguous sub-polyline whose vertices lie inside the box."""
    inside = ((poly[:, 0] >= x_min) & (poly[:, 0] <= x_max)
              & (poly[:, 1] >= y_min) & (poly[:, 1] <= y_max))
    best = (0, -1, -1)
    start = None
    for i, flag in enumerate(np.append(inside, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best[0]:
                best = (i - start, start, i)
            start = None
    if best[0] < 2:
        return None
    return poly[best[1]:best[2]]
