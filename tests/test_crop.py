"""Detection parsing, crop policy, and pixel extraction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuenet import crop
from cuenet.errors import BoundsError, FormatError


def lines(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def sequence_from(frames, height=100, width=100):
    """Build a DetectionSequence from raw corner tuples."""
    built = [[crop.BBox(*b) for b in boxes] for boxes in frames]
    return crop.DetectionSequence(frames=built, height=height, width=width)


def clamped_union(boxes, height, width):
    """Union of the boxes after clamping each corner to the frame."""
    def clamp(v, extent):
        return min(max(v, 0.0), float(extent))
    return (min(clamp(b.x_min, width) for b in boxes),
            min(clamp(b.y_min, height) for b in boxes),
            max(clamp(b.x_max, width) for b in boxes),
            max(clamp(b.y_max, height) for b in boxes))


class TestParsing:
    def test_two_empty_frames(self):
        seq = crop.parse_detections(
            lines({"frame": 0, "boxes": []}, {"frame": 1, "boxes": []}),
            height=100, width=100)
        assert seq.frame_count == 2
        assert seq.max_people == 0

    def test_single_box_read_back(self):
        seq = crop.parse_detections(
            lines({"frame": 0, "boxes": [[1.5, 2.5, 20.0, 30.0]]}),
            height=100, width=100)
        box = seq.frames[0][0]
        assert (box.x_min, box.y_min, box.x_max, box.y_max) \
            == (1.5, 2.5, 20.0, 30.0)

    def test_corners_clamped_to_frame(self):
        # boxes are kept as detected; the policy clamps their union once
        seq = crop.parse_detections(
            lines({"frame": 0, "boxes": [[-5.0, 0.0, 30.0, 40.0],
                                         [20.0, 10.0, 130.0, 50.0]]}),
            height=100, width=100)
        raw = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in seq.frames[0]]
        assert raw == [(-5.0, 0.0, 30.0, 40.0), (20.0, 10.0, 130.0, 50.0)]
        box = crop.compute_crop_box(seq).box
        assert (box.x_min, box.y_min, box.x_max, box.y_max) \
            == (0.0, 0.0, 100.0, 50.0)

    def test_frames_accepted_out_of_order(self):
        seq = crop.parse_detections(
            lines({"frame": 1, "boxes": []}, {"frame": 0, "boxes": []}),
            height=10, width=10)
        assert seq.frame_count == 2

    def test_duplicate_frame_reports_line(self):
        with pytest.raises(FormatError, match="line 2") as info:
            crop.parse_detections(
                lines({"frame": 0, "boxes": []}, {"frame": 0, "boxes": []}),
                height=10, width=10)
        assert info.value.line == 2

    def test_missing_frame_index_rejected(self):
        with pytest.raises(FormatError, match="missing"):
            crop.parse_detections(
                lines({"frame": 0, "boxes": []}, {"frame": 2, "boxes": []}),
                height=10, width=10)

    def test_inverted_box_reports_line(self):
        with pytest.raises(FormatError, match=r"line 1: inverted raw box "
                                              r"\(5\.0, 0\.0, 1\.0, 4\.0\)$"):
            crop.parse_detections(
                lines({"frame": 0, "boxes": [[5.0, 0.0, 1.0, 4.0]]}),
                height=10, width=10)

    def test_malformed_json_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            crop.parse_detections('{"frame": 0, "boxes": []}\nnot json\n',
                                  height=10, width=10)

    def test_wrong_box_arity_rejected(self):
        with pytest.raises(FormatError, match="x_min"):
            crop.parse_detections(
                lines({"frame": 0, "boxes": [[1.0, 2.0, 3.0]]}),
                height=10, width=10)

    def test_empty_stream_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            crop.parse_detections("", height=10, width=10)

    def test_corner_too_large_for_float_reports_line(self):
        # an integer overflows float(); a float literal decodes to +-inf,
        # which no box may hold: [[-1e400, 0, 5, 5]] is not (0, 0, 5, 5)
        for box in ("[0, 0, 1%s, 1]" % ("0" * 400), "[0, 0, 1e400, 1]",
                    "[-1e400, 0, 5, 5]"):
            text = lines({"frame": 0, "boxes": []}) \
                + '{"frame": 1, "boxes": [%s]}\n' % box
            with pytest.raises(FormatError, match="line 2"):
                crop.parse_detections(text, height=100, width=100)

    @pytest.mark.parametrize("record", (
        {"frame": True, "boxes": []},
        {"frame": 1, "boxes": [[False, 0, True, 1]]},
        {"frame": 1, "boxes": [[0, 0, 1.5, True]]},
        {"frame": 1, "boxes": [["0", " 1 ", "5", "1e1"]]},
        {"frame": 1, "boxes": [[0, 0, 1, "2"]]},
        {"frame": 1, "boxes": [[0, 0, 1, None]]},
    ))
    def test_boolean_rejected_as_number(self, record):
        # JSON true/false decode to bool, which isinstance(.., int) accepts;
        # strings such as "1e1" would pass float()
        text = lines({"frame": 0, "boxes": []}, record)
        with pytest.raises(FormatError, match="line 2"):
            crop.parse_detections(text, height=100, width=100)

    @pytest.mark.parametrize("constant", ("NaN", "Infinity", "-Infinity"))
    @pytest.mark.parametrize("template", (
        '{"frame": 1, "boxes": [[%s, 0, 5, 5]]}',
        '{"frame": 1, "boxes": [[0, 0, 5, %s]]}',
        '{"frame": %s, "boxes": []}'))
    def test_non_finite_constant_rejected(self, constant, template):
        # json.loads takes NaN and the infinities, which JSON does not have:
        # [[-Infinity, 0, 5, 5]] would clamp to the box (0, 0, 5, 5)
        text = lines({"frame": 0, "boxes": []}) + template % constant
        with pytest.raises(FormatError, match=f"line 2: .*{constant} is not"):
            crop.parse_detections(text, height=100, width=100)

    def test_integer_past_digit_limit_reports_line(self):
        text = '{"frame": 0, "boxes": [[0, 0, 1%s, 1]]}' % ("0" * 5000)
        with pytest.raises(FormatError, match="line 1"):
            crop.parse_detections(text, height=100, width=100)


class TestPolicy:
    def test_no_boxes_keeps_full_frame(self):
        decision = crop.compute_crop_box(sequence_from([[], [], []]))
        assert not decision.applied
        assert decision.max_people == 0
        box = decision.box
        assert (box.x_min, box.y_min, box.x_max, box.y_max) \
            == (0.0, 0.0, 100.0, 100.0)

    def test_single_person_everywhere_keeps_full_frame(self):
        frames = [[(10.0, 10.0, 20.0, 20.0)], [(50.0, 50.0, 60.0, 60.0)]]
        decision = crop.compute_crop_box(sequence_from(frames))
        assert not decision.applied
        assert decision.max_people == 1

    def test_two_people_in_one_frame_triggers_crop(self):
        frames = [
            [(10.0, 5.0, 40.0, 50.0)],
            [(30.0, 20.0, 70.0, 80.0), (15.0, 12.0, 35.0, 44.0)],
        ]
        decision = crop.compute_crop_box(sequence_from(frames))
        assert decision.applied
        assert decision.max_people == 2
        box = decision.box
        assert (box.x_min, box.y_min, box.x_max, box.y_max) \
            == (10.0, 5.0, 70.0, 80.0)

    def test_union_matches_brute_force(self):
        # corners reach 180 on a 100-wide frame, so the clamp is exercised
        rng = np.random.default_rng(17)
        for _ in range(50):
            frames = []
            any_multi = False
            for _f in range(int(rng.integers(1, 6))):
                count = int(rng.integers(0, 4))
                any_multi = any_multi or count > 1
                boxes = []
                for _b in range(count):
                    x0, y0 = rng.uniform(0, 90, 2)
                    boxes.append((x0, y0, x0 + rng.uniform(0, 90 - 0),
                                  y0 + rng.uniform(0, 90)))
                frames.append(boxes)
            seq = sequence_from(frames)
            decision = crop.compute_crop_box(seq)
            assert decision.applied == (seq.max_people > 1) == any_multi
            if decision.applied:
                all_boxes = [b for f in seq.frames for b in f]
                box = decision.box
                assert (box.x_min, box.y_min, box.x_max, box.y_max) \
                    == clamped_union(all_boxes, 100, 100)

    def test_frame_order_does_not_matter(self):
        frames = [
            [(10.0, 5.0, 40.0, 50.0), (3.0, 2.0, 9.0, 7.0)],
            [(30.0, 20.0, 70.0, 80.0)],
        ]
        forward = crop.compute_crop_box(sequence_from(frames))
        backward = crop.compute_crop_box(sequence_from(frames[::-1]))
        assert forward.box == backward.box

    def test_empty_sequence_rejected(self):
        with pytest.raises(FormatError):
            crop.compute_crop_box(
                crop.DetectionSequence(frames=[], height=10, width=10))


class TestApply:
    def test_not_applied_returns_same_object(self):
        video = np.zeros((2, 8, 8, 3))
        decision = crop.compute_crop_box(sequence_from([[], []],
                                                       height=8, width=8))
        assert crop.apply_crop(video, decision) is video

    def test_full_frame_box_is_identity(self):
        rng = np.random.default_rng(23)
        video = rng.standard_normal((2, 8, 8, 3))
        decision = crop.CropDecision(
            applied=True, box=crop.BBox(0.0, 0.0, 8.0, 8.0), max_people=2)
        out = crop.apply_crop(video, decision)
        assert np.array_equal(out, video)

    def test_known_region_extracted(self):
        rng = np.random.default_rng(24)
        video = rng.standard_normal((4, 8, 8, 3))
        decision = crop.CropDecision(
            applied=True, box=crop.BBox(2.0, 1.0, 6.0, 5.0), max_people=2)
        out = crop.apply_crop(video, decision)
        assert out.shape == (4, 4, 4, 3)
        assert np.array_equal(out, video[:, 1:5, 2:6, :])

    def test_region_is_a_view(self):
        video = np.zeros((2, 8, 8, 3))
        video.flags.writeable = False
        decision = crop.CropDecision(
            applied=True, box=crop.BBox(2.0, 1.0, 6.0, 5.0), max_people=2)
        out = crop.apply_crop(video, decision)
        assert np.shares_memory(out, video)
        assert not out.flags.writeable

    def test_fractional_box_rounds_outward(self):
        video = np.zeros((1, 10, 10, 1))
        decision = crop.CropDecision(
            applied=True, box=crop.BBox(2.3, 1.7, 5.2, 4.1), max_people=2)
        out = crop.apply_crop(video, decision)
        # floor(1.7)=1, ceil(4.1)=5 rows; floor(2.3)=2, ceil(5.2)=6 cols
        assert out.shape == (1, 4, 4, 1)

    def test_box_outside_frame_rejected(self):
        video = np.zeros((1, 4, 4, 1))
        for box in (crop.BBox(0.0, 0.0, 8.0, 8.0),
                    crop.BBox(-1.0, 0.0, 2.0, 2.0),
                    crop.BBox(0.0, -0.5, 2.0, 2.0)):
            decision = crop.CropDecision(applied=True, box=box, max_people=2)
            with pytest.raises(BoundsError, match="exceeds frame extents"):
                crop.apply_crop(video, decision)

    def test_degenerate_point_box_keeps_one_pixel(self):
        # a point inside, on the far corner and on the origin: the pixel at
        # the point, or the last one for the far corner
        video = np.arange(16.0).reshape(1, 4, 4, 1)
        for corner, pixel in ((2.0, 2), (4.0, 3), (0.0, 0)):
            box = crop.BBox(corner, corner, corner, corner)
            decision = crop.CropDecision(applied=True, box=box, max_people=2)
            out = crop.apply_crop(video, decision)
            assert out.shape == (1, 1, 1, 1)
            assert out[0, 0, 0, 0] == video[0, pixel, pixel, 0]


@st.composite
def detection_frames(draw, low=0.0, high=100.0):
    frame_count = draw(st.integers(min_value=1, max_value=5))
    frames = []
    for _ in range(frame_count):
        count = draw(st.integers(min_value=0, max_value=3))
        boxes = []
        for _ in range(count):
            x0 = draw(st.floats(min_value=low, max_value=high - 1.0))
            y0 = draw(st.floats(min_value=low, max_value=high - 1.0))
            x1 = draw(st.floats(min_value=x0, max_value=high))
            y1 = draw(st.floats(min_value=y0, max_value=high))
            boxes.append((x0, y0, x1, y1))
        frames.append(boxes)
    return frames


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(detection_frames())
    def test_union_contains_every_box(self, frames):
        seq = sequence_from(frames)
        decision = crop.compute_crop_box(seq)
        for boxes in seq.frames:
            for box in boxes:
                if decision.applied:
                    assert decision.box.contains(box)

    @settings(max_examples=150, deadline=None)
    @given(detection_frames())
    def test_union_is_minimal(self, frames):
        seq = sequence_from(frames)
        decision = crop.compute_crop_box(seq)
        if not decision.applied:
            return
        box = decision.box
        all_boxes = [b for f in seq.frames for b in f]
        # every edge of the union is witnessed by some detection
        assert any(math.isclose(b.x_min, box.x_min) for b in all_boxes)
        assert any(math.isclose(b.y_min, box.y_min) for b in all_boxes)
        assert any(math.isclose(b.x_max, box.x_max) for b in all_boxes)
        assert any(math.isclose(b.y_max, box.y_max) for b in all_boxes)

    @settings(max_examples=150, deadline=None)
    @given(detection_frames(low=-20.0, high=120.0))
    def test_out_of_frame_union_is_clamped(self, frames):
        # boxes poke out of the 100x100 frame; the decision is the union
        # of the per-box clamped corners, exactly
        seq = sequence_from(frames)
        decision = crop.compute_crop_box(seq)
        assert decision.max_people == max(map(len, frames))
        assert decision.applied == (decision.max_people > 1)
        if not decision.applied:
            return
        box = decision.box
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == clamped_union(
            [b for f in seq.frames for b in f], 100, 100)
        assert crop.apply_crop(np.zeros((1, 100, 100, 1)), decision).size > 0

    @settings(max_examples=100, deadline=None)
    @given(detection_frames())
    def test_policy_iff_multiple_people(self, frames):
        seq = sequence_from(frames)
        decision = crop.compute_crop_box(seq)
        assert decision.applied == (max(
            (len(b) for b in frames), default=0) > 1)

    @settings(max_examples=50, deadline=None)
    @given(detection_frames())
    def test_recrop_of_crop_is_stable(self, frames):
        # boxes re-expressed in the cropped pixel frame produce a region
        # no larger than the first crop
        seq = sequence_from(frames)
        decision = crop.compute_crop_box(seq)
        if not decision.applied:
            return
        y0, y1, x0, x1 = crop.pixel_bounds(decision.box, 100, 100)
        shifted = []
        for boxes in frames:
            shifted.append([(b[0] - x0, b[1] - y0, b[2] - x0, b[3] - y0)
                            for b in boxes])
        seq2 = sequence_from(shifted, height=y1 - y0, width=x1 - x0)
        second = crop.compute_crop_box(seq2)
        assert second.applied
        y0b, y1b, x0b, x1b = crop.pixel_bounds(second.box, y1 - y0, x1 - x0)
        assert (y1b - y0b) <= (y1 - y0)
        assert (x1b - x0b) <= (x1 - x0)

