import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maneuverkit.features import (
    FrameMotion,
    aggregate_inside,
    frame_features,
    inside_sequence,
    outside_features,
)
from maneuverkit.numerics import make_rng


def loop_histograms(matches):
    """The per-match if-chain that binned motion before the vectorized
    binning, verbatim: (horizontal, angular) counts."""
    horiz = np.zeros(4)
    angular = np.zeros(4)
    for dx, dy in matches:
        if dx <= -2.0:
            horiz[0] += 1
        elif dx <= 0.0:
            horiz[1] += 1
        elif dx <= 2.0:
            horiz[2] += 1
        else:
            horiz[3] += 1
        angle = np.arctan2(dy, dx) % (2.0 * np.pi)
        angular[min(int(angle // (np.pi / 2.0)), 3)] += 1
    return horiz, angular


# finite coordinates, with the exact bin edges and both signed zeros drawn often
coordinates = st.one_of(st.sampled_from([-2.0, 0.0, -0.0, 2.0]), st.floats(-1e6, 1e6))


class TestFrameFeatures:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(coordinates, coordinates), max_size=30))
    @example([(-2.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (2.0, 0.0), (-0.0, 1.0), (1.0, -1e-300)])
    def test_histograms_match_the_per_match_loop(self, matches):
        phi = frame_features(FrameMotion(matches=matches))
        horiz, angular = loop_histograms(matches)
        assert phi.dtype == horiz.dtype
        np.testing.assert_array_equal(phi[:4], horiz)
        np.testing.assert_array_equal(phi[4:8], angular)

    def test_positive_small_horizontal_motion(self):
        phi = frame_features(FrameMotion(matches=[(1.5, 0.0)]))
        np.testing.assert_array_equal(phi[:4], [0, 0, 1, 0])

    def test_bin_edges_left_open_right_closed(self):
        for dx, expected in [(-2.0, 0), (-2.0001, 0), (-1.9999, 1), (0.0, 1), (2.0, 2), (2.0001, 3)]:
            phi = frame_features(FrameMotion(matches=[(dx, 0.1)]))
            assert phi[:4].argmax() == expected, dx

    def test_angular_bin_at_three_quarters_pi(self):
        phi = frame_features(FrameMotion(matches=[(-1.0, 1.0)]))  # angle 3*pi/4
        np.testing.assert_array_equal(phi[4:8], [0, 1, 0, 0])

    def test_angular_quadrants(self):
        # angle 0 -> first bin; pi -> third bin; just below 2*pi -> fourth
        assert frame_features(FrameMotion(matches=[(1.0, 0.0)]))[4:8].argmax() == 0
        assert frame_features(FrameMotion(matches=[(-1.0, 0.0)]))[4:8].argmax() == 2
        assert frame_features(FrameMotion(matches=[(1.0, -1e-9)]))[4:8].argmax() == 3

    def test_empty_frame_is_zero_vector(self):
        phi = frame_features(FrameMotion(matches=[]))
        np.testing.assert_array_equal(phi, np.zeros(9))

    def test_histogram_counts_sum_to_matches(self):
        rng = make_rng(0)
        for _ in range(30):
            n = int(rng.integers(0, 40))
            matches = [tuple(rng.normal(0, 3, 2)) for _ in range(n)]
            phi = frame_features(FrameMotion(matches=matches))
            assert phi[:4].sum() == n
            assert phi[4:8].sum() == n

    def test_center_motion_magnitude(self):
        phi = frame_features(FrameMotion(matches=[], center_motion=(3.0, 4.0)))
        assert phi[8] == 5.0

    def test_a_pose_is_appended(self):
        fm = FrameMotion(matches=[(1.0, 0.0)], pose=(0.1, -0.2, 0.05))
        phi = frame_features(fm)
        assert phi.shape == (12,)
        np.testing.assert_array_equal(phi[9:], [0.1, -0.2, 0.05])

    def test_pose_never_perturbs_histograms(self):
        rng = make_rng(1)
        matches = [tuple(rng.normal(0, 3, 2)) for _ in range(10)]
        plain = frame_features(FrameMotion(matches=matches))
        posed = frame_features(FrameMotion(matches=matches, pose=(0.3, 0.1, -0.2)))
        np.testing.assert_array_equal(posed[:9], plain)


class TestAggregation:
    def test_basis_vector_fixed_point(self):
        e1 = np.eye(9)[0]
        z = aggregate_inside([e1] * 20)
        np.testing.assert_allclose(z, e1, atol=1e-15)

    def test_scale_invariance(self):
        rng = make_rng(2)
        frames = [np.abs(rng.normal(0, 1, 9)) for _ in range(20)]
        z1 = aggregate_inside(frames)
        z2 = aggregate_inside([10.0 * f for f in frames])
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_matches_two_line_oracle(self):
        rng = make_rng(3)
        frames = [rng.uniform(0, 2, 9) for _ in range(20)]
        total = np.sum(frames, axis=0)
        expected = total / np.linalg.norm(total)
        np.testing.assert_allclose(aggregate_inside(frames), expected, atol=1e-12)

    def test_unit_norm_whenever_nonzero(self):
        rng = make_rng(4)
        for _ in range(20):
            frames = [np.abs(rng.normal(0, 1, 9)) for _ in range(20)]
            assert abs(np.linalg.norm(aggregate_inside(frames)) - 1.0) <= 1e-12

    def test_all_zero_window_passes_through(self):
        z = aggregate_inside([np.zeros(9)] * 20)
        np.testing.assert_array_equal(z, np.zeros(9))

    def test_wrong_window_rejected(self):
        with pytest.raises(ValueError):
            aggregate_inside([np.zeros(9)] * 19)


class TestInsideSequence:
    def test_whole_windows_required(self):
        frames = [FrameMotion(matches=[(1.0, 0.0)])] * 30
        with pytest.raises(ValueError):
            inside_sequence(frames)

    @pytest.mark.parametrize("pose, width", [(None, 9), ((0.1, -0.2, 0.05), 12)], ids=["unposed", "posed"])
    def test_produces_one_step_per_window(self, pose, width):
        frames = [FrameMotion(matches=[(1.0, 0.5)], pose=pose)] * 40
        steps = inside_sequence(frames)
        assert steps.shape == (2, width)
        np.testing.assert_allclose(np.linalg.norm(steps, axis=1), 1.0, atol=1e-12)

    # replaces the two checks that a frame's pose matched a requested mode
    @pytest.mark.parametrize("first_posed, message", [
        (True, r"^frame 23 lacks a pose, unlike frame 0; a stream must give every frame a pose or none$"),
        (False, r"^frame 23 has a pose, unlike frame 0; a stream must give every frame a pose or none$"),
    ], ids=["posed-then-unposed", "unposed-then-posed"])
    def test_mixed_stream_refused_at_the_first_differing_frame(self, first_posed, message):
        plain, posed = FrameMotion(matches=[(1.0, 0.5)]), FrameMotion(matches=[(1.0, 0.5)], pose=(0, 0, 0))
        first, other = (posed, plain) if first_posed else (plain, posed)
        with pytest.raises(ValueError, match=message):
            inside_sequence([first] * 23 + [other] + [first, other] * 8)


class TestOutsideFeatures:
    def test_constant_speeds(self):
        x = outside_features(False, True, False, [50.0] * 6)
        np.testing.assert_array_equal(x, [0, 1, 0, 50, 50, 50])

    def test_leftmost_lane_encoding(self):
        # vehicle in the left-most lane: no lane to the left, one to the right
        x = outside_features(False, True, False, [60.0])
        assert x[0] == 0.0 and x[1] == 1.0

    def test_speed_statistics(self):
        x = outside_features(True, True, True, [30.0, 40.0, 50.0])
        np.testing.assert_array_equal(x[3:], [40.0, 50.0, 30.0])
        assert x[5] <= x[3] <= x[4]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            outside_features(True, False, False, [])
