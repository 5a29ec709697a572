"""Feature construction from per-frame face motion and vehicle context.

The inside stream starts from per-frame records of tracked facial-point
motion.  Each frame becomes a 9-vector: a 4-bin histogram of horizontal
motion (pixels), a 4-bin histogram of the motion angle in the image plane,
and the magnitude of the mean face-center displacement.  With head pose
available, (yaw, pitch, roll) are appended for a 12-vector.  Frame vectors
are summed over windows of ``AGGREGATION_WINDOW`` = 20 frames (0.8 s at
25 fps) and L2-normalized.

The outside stream is assembled directly: two lane-existence flags, a
road-artifact proximity flag, and average/maximum/minimum speed over the
recent window, giving a 6-vector.

Bin edges are half-open on the left and closed on the right for the
horizontal histogram; the angular histogram uses right-open quadrants of
[0, 2*pi).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import l2_normalize

log = logging.getLogger(__name__)

AGGREGATION_WINDOW = 20          # frames per step, 0.8 s at 25 fps

HORIZONTAL_EDGES = (-2.0, 0.0, 2.0)


@dataclass
class FrameMotion:
    """Motion extracted from one video frame.

    ``matches``: (dx, dy) pixel displacements of tracked facial points
    between successive frames.  ``center_motion``: (dx, dy) displacement of
    the face center.  ``pose``: optional (yaw, pitch, roll) in radians.
    """

    matches: Sequence[tuple[float, float]]
    center_motion: tuple[float, float] = (0.0, 0.0)
    pose: tuple[float, float, float] | None = None


def frame_features(fm: FrameMotion) -> np.ndarray:
    """Per-frame feature vector phi: 9 values, or 12 when the frame has a pose."""
    dx, dy = np.asarray(fm.matches, dtype=float).reshape(len(fm.matches), 2).T
    horiz = np.bincount(np.searchsorted(HORIZONTAL_EDGES, dx), minlength=4).astype(float)
    quadrant = np.minimum(np.arctan2(dy, dx) % (2.0 * np.pi) // (np.pi / 2.0), 3).astype(int)
    angular = np.bincount(quadrant, minlength=4).astype(float)

    center = float(np.hypot(*fm.center_motion))
    phi = np.concatenate([horiz, angular, [center]])
    if fm.pose is not None:
        phi = np.concatenate([phi, np.asarray(fm.pose, dtype=float)])
    return phi


def aggregate_inside(frames: Sequence[np.ndarray]) -> np.ndarray:
    """Sum ``AGGREGATION_WINDOW`` per-frame vectors and L2-normalize the sum.

    A run of entirely empty frames yields the zero vector (with a warning)
    rather than a division by zero.
    """
    if len(frames) != AGGREGATION_WINDOW:
        raise ValueError(f"expected exactly {AGGREGATION_WINDOW} frames, got {len(frames)}")
    total = np.sum(np.asarray(frames, dtype=float), axis=0)
    if not np.any(total):
        log.warning("aggregation window summed to zero; emitting a zero feature")
        return total
    return l2_normalize(total)


def inside_sequence(frames: Sequence[FrameMotion]) -> np.ndarray:
    """Convert a frame stream into aggregated step features: (T, 12) when
    its frames have a pose, else (T, 9).

    The frame count must be a whole number of ``AGGREGATION_WINDOW``-frame
    windows, and either every frame has a pose or none does.
    """
    window = AGGREGATION_WINDOW
    if len(frames) == 0 or len(frames) % window != 0:
        raise ValueError(f"frame count {len(frames)} is not a positive multiple of {window}")
    posed = frames[0].pose is not None
    mixed = next((k for k, fm in enumerate(frames) if (fm.pose is not None) != posed), None)
    if mixed is not None:
        raise ValueError(
            f"frame {mixed} {'lacks' if posed else 'has'} a pose, unlike frame 0; a stream "
            "must give every frame a pose or none"
        )
    phis = [frame_features(fm) for fm in frames]
    steps = [aggregate_inside(phis[k : k + window]) for k in range(0, len(phis), window)]
    return np.asarray(steps)


def outside_features(
    lane_left: bool,
    lane_right: bool,
    artifact_near: bool,
    speeds: Sequence[float],
) -> np.ndarray:
    """6-vector [lane_left, lane_right, artifact, avg, max, min speed].

    ``speeds`` is the km/h history over the recent window (last 5 s).
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size == 0:
        raise ValueError("speed window must be nonempty")
    return np.array(
        [
            1.0 if lane_left else 0.0,
            1.0 if lane_right else 0.0,
            1.0 if artifact_near else 0.0,
            float(np.mean(speeds)),
            float(np.max(speeds)),
            float(np.min(speeds)),
        ]
    )
