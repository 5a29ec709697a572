"""From raw per-frame face motion to model-ready inside features.

A driver-facing camera at 25 fps yields per-frame point motions.  Each
frame becomes a 9-vector (4 horizontal-motion bins, 4 angle bins, mean
center movement); 20-frame windows are summed and L2-normalized into one
feature step per 0.8 s.  With 3D head pose available, (yaw, pitch, roll)
extend the vector to 12 entries without touching the histograms.
"""

import numpy as np

from maneuverkit.features import (
    FrameMotion,
    aggregate_inside,
    frame_features,
    inside_sequence,
    outside_features,
)
from maneuverkit.numerics import make_rng

rng = make_rng(0)

# A frame where the driver glances left: points move with negative dx.
glance_left = FrameMotion(
    matches=[(-3.1, 0.4), (-2.6, -0.2), (-1.2, 0.1), (-4.0, 0.8)],
    center_motion=(-2.7, 0.3),
)
phi = frame_features(glance_left)
print("phi for a leftward glance:")
print("  horizontal bins [<=-2, -2..0, 0..2, >=2]:", phi[:4])
print("  angular bins    [q1, q2, q3, q4]:        ", phi[4:8])
print("  center movement:                          ", round(phi[8], 3))

# Aggregate 20 frames (0.8 s) into one unit-norm step.
frames = [phi] * 8 + [frame_features(FrameMotion(matches=[(0.3, 0.1)]))] * 12
step = aggregate_inside(frames)
print(f"\naggregated step, norm = {np.linalg.norm(step):.12f}:")
print(" ", step.round(3))

# A full 2-step stretch from 40 frames, with head pose appended.
posed = [
    FrameMotion(
        matches=[tuple(rng.normal(0, 2, 2)) for _ in range(6)],
        center_motion=tuple(rng.normal(0, 1, 2)),
        pose=(0.2 * np.sin(k / 8), 0.05, -0.02),
    )
    for k in range(40)
]
steps = inside_sequence(posed)
print(f"\ninside_sequence with pose: shape {steps.shape} (12-d steps)")
print("  pose block of step 0:", steps[0, 9:].round(4))

# The matching outside step: left lane exists, no artifact, recent speeds.
x = outside_features(lane_left=True, lane_right=False, artifact_near=False,
                     speeds=[62.0, 63.5, 61.8, 64.0])
print("\noutside feature vector:", x.round(2))
