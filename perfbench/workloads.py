"""Workload definitions and the seeded input generator.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The program under test only ever sees
generated inputs: CTF clip bytes plus a JSON-lines detection text for the
clip workloads, and for the attention sweep the seeded instances that
``analysis.bench_attention`` (``cuenet bench``) builds.  One operation of the
sweep runs each of its kernels once.

Each workload has a ``full`` size, which the benchmark measures, and a
``tiny`` size, which the benchmark's own tests use to run every code path in
a few seconds.
"""

import json
from dataclasses import dataclass

D_MODEL = 64  # token width of every attention workload


@dataclass(frozen=True)
class ClipSize:
    """Model geometry and the pool of source clips it is fed."""

    frames: int
    height: int
    width: int
    sources: tuple        # (height, width) of the generated source clips


@dataclass(frozen=True)
class ClipWorkload:
    name: str
    why: str
    precision: str
    local_attention: tuple
    global_attention: str
    people: tuple         # max people per frame, cycled over the pool
    sizes: dict           # "full" / "tiny" -> ClipSize

    kind = "clip"

    def config(self, size):
        from cuenet.config import desk_preset
        geo = self.sizes[size]
        return desk_preset(frames=geo.frames, height=geo.height,
                           width=geo.width, precision=self.precision,
                           local_attention=self.local_attention,
                           global_attention=self.global_attention)


@dataclass(frozen=True)
class AttentionWorkload:
    name: str
    why: str
    kernels: tuple        # (short name for metrics, cuenet attention kind)
    sizes: dict           # "full" / "tiny" -> {short name: token count}

    kind = "attention"


WORKLOADS = {w.name: w for w in (
    ClipWorkload(
        name="desk_mixed",
        why="desk preset f64 8x32x32, 2 softmax local + meaa global; 5 "
            "source sizes 32x32..120x160, 1-3 people: many small ops, so "
            "per-call overhead, decode and resize show",
        precision="double",
        local_attention=("self_attention", "self_attention"),
        global_attention="meaa",
        people=(1, 2, 3),
        sizes={"full": ClipSize(8, 32, 32, ((32, 32), (48, 64), (72, 96),
                                            (96, 128), (120, 160))),
               "tiny": ClipSize(4, 32, 32, ((32, 32), (40, 48), (48, 64)))}),
    ClipWorkload(
        name="large_frame",
        why="f32 16x112x112, meaa + eaa local, self global over 400 tokens; "
            "sources up to 240x320: BLAS-bound backbone and resize, loop and "
            "bind overhead negligible",
        precision="single",
        local_attention=("meaa", "eaa_original"),
        global_attention="self_attention",
        people=(1, 2, 3),
        sizes={"full": ClipSize(16, 112, 112, ((240, 320), (180, 240),
                                               (112, 112))),
               "tiny": ClipSize(4, 32, 32, ((48, 64), (40, 48), (32, 32)))}),
    AttentionWorkload(
        name="attn_sweep",
        why="one op = flat pooled meaa and eaa_original at n=16384 plus flat "
            "softmax attention at n=2048, d=64, counter and meter on: the "
            "attention kernels alone, no backbone, crop or blocks",
        kernels=(("meaa", "meaa"), ("eaa", "eaa_original"),
                 ("self", "self_attention")),
        sizes={"full": {"meaa": 16384, "eaa": 16384, "self": 2048},
               "tiny": {"meaa": 256, "eaa": 256, "self": 128}}),
)}


@dataclass
class Clip:
    """One generated clip with the crop decision the policy must reach."""

    video_bytes: bytes
    detections: str
    height: int
    width: int
    people: int
    union: tuple          # (x_min, y_min, x_max, y_max) of every box


# Region holding every box of a clip, as a share of frame (width, height),
# by the number of people: fixed, so the crop and resize work of a pool slot
# is the same for every seed and only positions and pixels vary.
PEOPLE_REGION = {1: (1.0, 1.0), 2: (0.6, 0.7), 3: (0.8, 0.9)}
BOX_SHARE = (0.45, 0.6)  # one box as a share of its region


def make_clips(workload, size, seed, count=None):
    """Generate the clip pool for ``seed``; the same seed gives the same bytes.

    Clip ``k`` has source size ``sources[k % S]`` and at most
    ``people[(k // S) % P]`` people, so the pool covers every pair once and
    has an odd number of clips: each quantile the benchmark reports then
    falls inside the time band of one pool slot, not between two.  Frame
    ``f`` of a clip with at most ``p`` people holds ``1 + f % p`` boxes,
    placed in a region of fixed share (``PEOPLE_REGION``) at a seeded spot;
    the first box touches the region's top-left corner and the last person's
    first box its bottom-right one, so the union the crop policy must find
    is that region.  Box corners are rounded to two decimals.
    """
    import numpy as np
    from cuenet import ctf
    from cuenet.tensor import dtype_of

    geo = workload.sizes[size]
    dtype = dtype_of(workload.precision)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    n_sources = len(geo.sources)
    clips = []
    if count is None:
        count = n_sources * len(workload.people)
    for k in range(count):
        height, width = geo.sources[k % n_sources]
        people = workload.people[(k // n_sources) % len(workload.people)]
        video = rng.random((geo.frames, height, width, 3)).astype(dtype)
        uw = PEOPLE_REGION[people][0] * width
        uh = PEOPLE_REGION[people][1] * height
        ux = rng.uniform(0, width - uw)
        uy = rng.uniform(0, height - uh)
        bw, bh = BOX_SHARE[0] * uw, BOX_SHARE[1] * uh
        lines, boxes_all = [], []
        for f in range(geo.frames):
            boxes = []
            for person in range(1 + f % people):
                if f == 0:
                    x, y = ux, uy
                elif f == people - 1 and person == people - 1:
                    x, y = ux + uw - bw, uy + uh - bh
                else:
                    x = ux + rng.uniform(0, uw - bw)
                    y = uy + rng.uniform(0, uh - bh)
                boxes.append([round(x, 2), round(y, 2),
                              min(round(x + bw, 2), float(width)),
                              min(round(y + bh, 2), float(height))])
            boxes_all += boxes
            lines.append(json.dumps({"frame": f, "boxes": boxes}))
        union = (min(b[0] for b in boxes_all), min(b[1] for b in boxes_all),
                 max(b[2] for b in boxes_all), max(b[3] for b in boxes_all))
        clips.append(Clip(video_bytes=ctf.tensor_bytes(video),
                          detections="\n".join(lines) + "\n",
                          height=height, width=width, people=people,
                          union=union))
    return clips


def attention_instances(workload, size, seed):
    """Per kernel, the seeded runner ``analysis.bench_attention`` builds.

    ``_attention_instance`` is private to ``analysis``; calling it keeps the
    sweep's inputs identical to those of ``cuenet bench``.
    """
    from cuenet import analysis
    n = workload.sizes[size]
    return {short: analysis._attention_instance(kind, n[short], D_MODEL, seed)
            for short, kind in workload.kernels}
