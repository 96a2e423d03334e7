"""Detection-driven spatial cropping.

A person detector supplies per-frame axis-aligned boxes.  When any frame
contains more than one person, the clip is cropped to the union of every box
across every frame (the smallest rectangle containing all detections) so the
downstream network spends its fixed input resolution on the region where an
interaction can occur.  With at most one person per frame the full frame is
kept: a single box would discard scene context without isolating an
interaction.

Box coordinates are continuous, x rightward and y downward, with
``x_min <= x_max`` and ``y_min <= y_max``.  Detected boxes are kept as the
detector gave them and may poke outside the frame; the policy clamps their
union to the frame once.  Pixel extraction rounds the union box outward
(floor the minima, ceil the maxima), so the crop never loses detected
content to rounding.

:func:`crop_clip` is the crop step every caller runs: it refuses a stream
that does not describe the clip, then applies the policy and cuts the
region.
"""

import json
import math
from dataclasses import dataclass

from .errors import BoundsError, FormatError
from .tensor import check_tensor


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, continuous coordinates, min corner inclusive.

    Corners must be finite and ordered; they may lie outside any frame.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.y_min)
                and math.isfinite(self.x_max) and math.isfinite(self.y_max)):
            raise ValueError(f"non-finite box corner: {self}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted raw box ({self.x_min}, {self.y_min}, "
                             f"{self.x_max}, {self.y_max})")

    def contains(self, other):
        """Whether ``other`` lies entirely inside this box."""
        return (self.x_min <= other.x_min and self.y_min <= other.y_min
                and self.x_max >= other.x_max and self.y_max >= other.y_max)


@dataclass
class DetectionSequence:
    """Per-frame detection boxes for one clip, as detected (not clamped)."""

    frames: list
    height: int
    width: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"non-positive frame dims "
                             f"({self.height}, {self.width})")

    @property
    def frame_count(self):
        return len(self.frames)

    @property
    def max_people(self):
        """Largest per-frame box count across the clip."""
        return max((len(boxes) for boxes in self.frames), default=0)


@dataclass(frozen=True)
class CropDecision:
    """Outcome of the crop policy for one clip."""

    applied: bool
    box: BBox
    max_people: int


def _not_a_number(name):
    """Decoder hook: NaN and the infinities are not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


# one decoder for every line: json.loads with a hook builds one per call
_DECODER = json.JSONDecoder(parse_constant=_not_a_number)


def parse_detections(text, height, width):
    """Parse JSON-lines detection text into a :class:`DetectionSequence`.

    Each line is an object ``{"frame": i, "boxes": [[x_min, y_min, x_max,
    y_max], ...]}``.  Frames may appear in any order but the indices must
    form exactly 0..T-1 with no duplicates.  Box corners must be JSON
    numbers (not strings, booleans, ``NaN`` or ``Infinity``) that fit a
    float; boxes are kept as detected, outside the frame or not.  A
    malformed line, or one with ``min > max``, is rejected with its line
    number.
    """
    by_index = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = _DECODER.decode(line)
        except ValueError as exc:  # also an integer past the digit limit
            raise FormatError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                              line=lineno) from None
        if not isinstance(record, dict) or "frame" not in record \
                or "boxes" not in record:
            raise FormatError("expected object with 'frame' and 'boxes'",
                              line=lineno)
        index = record["frame"]
        if not isinstance(index, int) or isinstance(index, bool) \
                or index < 0:
            raise FormatError(f"bad frame index {index!r}", line=lineno)
        if index in by_index:
            raise FormatError(f"duplicate frame index {index}", line=lineno)
        boxes = []
        if not isinstance(record["boxes"], list):
            raise FormatError("'boxes' must be a list", line=lineno)
        for entry in record["boxes"]:
            if not isinstance(entry, list) or len(entry) != 4:
                raise FormatError(f"box must be [x_min, y_min, x_max, y_max], "
                                  f"got {entry!r}", line=lineno)
            try:
                # JSON numbers only: true/false decode to bool, an int
                if not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in entry):
                    raise TypeError("box corner is not a JSON number")
                boxes.append(BBox(*map(float, entry)))
            except (TypeError, OverflowError):
                raise FormatError(f"non-numeric box corner in {entry!r}",
                                  line=lineno) from None
            except ValueError as exc:  # non-finite or inverted
                raise FormatError(str(exc), line=lineno) from None
        by_index[index] = boxes
    if not by_index:
        raise FormatError("empty detection stream")
    count = len(by_index)
    missing = sorted(set(range(count)) - set(by_index))
    extra = sorted(i for i in by_index if i >= count)
    if missing or extra:
        raise FormatError(f"frame indices must cover 0..{count - 1} exactly; "
                          f"missing {missing}, out of range {extra}")
    return DetectionSequence(frames=[by_index[i] for i in range(count)],
                             height=height, width=width)


def compute_crop_box(detections):
    """Apply the crop policy to a detection sequence.

    Returns a :class:`CropDecision`.  The union box covers every detection in
    every frame, clamped to the frame; cropping is applied exactly when some
    frame holds more than one box.  When not applied the box is the full
    frame.
    """
    if detections.frame_count < 1:
        raise FormatError("detection sequence has no frames")
    height, width = float(detections.height), float(detections.width)
    max_people = detections.max_people
    if max_people <= 1:
        return CropDecision(applied=False, box=BBox(0.0, 0.0, width, height),
                            max_people=max_people)
    x_min = y_min = math.inf
    x_max = y_max = -math.inf
    for boxes in detections.frames:
        for box in boxes:
            x_min = min(x_min, box.x_min)
            y_min = min(y_min, box.y_min)
            x_max = max(x_max, box.x_max)
            y_max = max(y_max, box.y_max)
    return CropDecision(applied=True,
                        box=BBox(min(max(x_min, 0.0), width),
                                 min(max(y_min, 0.0), height),
                                 min(max(x_max, 0.0), width),
                                 min(max(y_max, 0.0), height)),
                        max_people=max_people)


def pixel_bounds(box, height, width):
    """Outward-rounded integer bounds (y0, y1, x0, x1) of a box.

    The box must lie inside the frame, as :func:`apply_crop` checks: no
    negative minimum, no maximum past ``height`` or ``width``.  Half-open
    on the max side; guaranteed non-empty and inside the frame.
    """
    y0, x0 = math.floor(box.y_min), math.floor(box.x_min)
    y1, x1 = math.ceil(box.y_max), math.ceil(box.x_max)
    # degenerate zero-area boxes still yield one pixel
    if y1 <= y0:
        y1 = min(height, y0 + 1)
        y0 = y1 - 1
    if x1 <= x0:
        x1 = min(width, x0 + 1)
        x0 = x1 - 1
    return y0, y1, x0, x1


def apply_crop(video, decision):
    """Extract the decided region from a (T,H,W,C) clip.

    A decision that was not applied returns the input unchanged; an applied
    one returns the region as a view of the input, which stays strided and
    shares its memory (and its read-only flag).  The box must lie within
    the clip's spatial extents: no negative minimum, no maximum past the
    far edge.
    """
    check_tensor(video, rank=4, name="video")
    if not decision.applied:
        return video
    _, height, width, _ = video.shape
    box = decision.box
    if box.x_min < 0 or box.y_min < 0 or box.x_max > width \
            or box.y_max > height:
        raise BoundsError(f"crop box {box} exceeds frame extents "
                          f"({height}, {width})")
    y0, y1, x0, x1 = pixel_bounds(box, height, width)
    return video[:, y0:y1, x0:x1, :]


def crop_clip(video, detections):
    """The crop step for a (T,H,W,C) clip; returns ``(decision, region)``.

    ``detections`` must describe the clip: as many frames, and parsed
    against the clip's frame size, else ``FormatError``.  The decision is
    :func:`compute_crop_box`'s and the region :func:`apply_crop`'s.
    """
    frames, height, width, _ = check_tensor(video, rank=4, name="video").shape
    if detections.frame_count != frames:
        raise FormatError(f"detection stream covers {detections.frame_count}"
                          f" frames, clip has {frames}")
    if (detections.height, detections.width) != (height, width):
        raise FormatError(f"detection stream describes {detections.height}x"
                          f"{detections.width} frames, clip has "
                          f"{height}x{width}")
    decision = compute_crop_box(detections)
    return decision, apply_crop(video, decision)
