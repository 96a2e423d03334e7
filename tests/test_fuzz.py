"""Fuzzed input parsers: only the documented input errors escape.

Tensor files, weight containers and detection streams arrive from outside
the package, so every malformed byte string must surface as ``FormatError``
(or ``ConfigError`` for a precision request the container cannot meet),
and the ``crop`` command must exit 0 or 2 on any detection text.  A
configuration file with any value in any key raises only ``ConfigError``.
``infer`` on extreme but finite weights and clips, on any configuration
file, and on weight files that mix or mislabel precisions exits with a
documented code and prints nothing but its result or its error line.
"""

import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cuenet import analysis, cli, ctf, weights
from cuenet.config import desk_preset, parse_config, serialize_config
from cuenet.crop import parse_detections
from cuenet.errors import ConfigError, FormatError
from cuenet.tensor import dtype_of, precision_of

DOCUMENTED = (FormatError, ConfigError)
FUZZ = settings(max_examples=200, deadline=None)


def mutated(valid):
    """Byte strings near ``valid``: overwritten bytes, a cut, a tail."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1),
                               st.integers(0, 255)), max_size=6)
    return st.builds(_apply, st.just(valid), edits,
                     st.integers(0, len(valid)), st.binary(max_size=16))


def _apply(valid, edits, cut, tail):
    data = bytearray(valid)
    for pos, byte in edits:
        data[pos] = byte
    return bytes(data[:cut]) + tail


def _ctf_header(flag, extents):
    return (ctf.MAGIC + struct.pack("<BB", flag, len(extents))
            + struct.pack(f"<{len(extents)}I", *extents))


# headers with any flag, up to 80 axes, zero and huge extents
ctf_headers = st.builds(
    _ctf_header, st.sampled_from((0, 1, 2, 255)),
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 32 - 1)),
             max_size=80))
ctf_blobs = st.one_of(
    st.binary(max_size=64),
    st.builds(bytes.__add__, ctf_headers, st.binary(max_size=32)),
    mutated(ctf.tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))))

_CONTAINER = weights.container_bytes(weights.WeightContainer(
    entries={"a.w": np.ones((2, 3), np.float32),
             "b": np.zeros((4,), np.float32)},
    precision="single"))

# st.floats() includes nan and the infinities; integers past 2**1024 have
# no float value at all
corners = st.one_of(st.integers(), st.integers(min_value=2 ** 1024),
                    st.floats())
records = st.fixed_dictionaries({
    "frame": st.one_of(st.integers(0, 3), st.integers()),
    "boxes": st.lists(st.lists(corners, min_size=3, max_size=5),
                      max_size=3)})
detection_lines = st.lists(
    st.one_of(records.map(json.dumps), st.text(max_size=12)),
    min_size=0, max_size=5).map("\n".join)


_CONFIG_LINES = serialize_config(desk_preset()).splitlines()
_CONFIG_KEYS = [line.partition("=")[0] for line in _CONFIG_LINES]
# non-finite and overflowing numbers, integers past the digit limit, text
config_values = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "1e400", "1e307", "-0.0",
                     "9" * 400, "9" * 5000)),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=12))


def _config_text(values):
    return "\n".join(
        f"{key}={values[key]}" if key in values else line
        for key, line in zip(_CONFIG_KEYS, _CONFIG_LINES)) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ctf.write_tensor(root / "clip.ctf", np.zeros((2, 6, 8, 3)))
    return root


@FUZZ
@given(ctf_blobs)
def test_tensor_parser_raises_only_format_error(data):
    try:
        array, end = ctf.tensor_from_bytes(data)
    except FormatError:
        return
    assert end <= len(data)
    assert array.dtype in (np.float32, np.float64)


@FUZZ
@given(st.one_of(st.binary(max_size=64), mutated(_CONTAINER)),
       st.sampled_from((None, "single", "double")), st.booleans())
def test_weight_loader_raises_only_documented_errors(files, data, precision,
                                                     allow_widen):
    path = files / "fuzz.cwc"
    path.write_bytes(data)
    try:
        weights.load_weights(path, precision, allow_widen)
    except DOCUMENTED:
        pass


@FUZZ
@given(detection_lines, st.integers(1, 64), st.integers(1, 64))
def test_detection_parser_raises_only_format_error(text, height, width):
    try:
        parse_detections(text, height, width)
    except FormatError:
        pass


@FUZZ
@given(detection_lines)
def test_crop_command_exits_0_or_2(files, text):
    detections = files / "det.jsonl"
    detections.write_text(text)
    code = cli.main(["crop", "--video", str(files / "clip.ctf"),
                     "--detections", str(detections),
                     "--out", str(files / "out.ctf")])
    assert code in (0, 2)


@FUZZ
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), config_values,
                       min_size=1, max_size=3))
def test_config_parser_raises_only_config_error(values):
    try:
        parse_config(_config_text(values))
    except ConfigError:
        pass


_PRECISIONS = {"single": (np.float32, "f32"), "double": (np.float64, "f64")}


@pytest.fixture(scope="module")
def infer_weights(tmp_path_factory):
    """Desk weight files by (precision, scale): as initialized, times 1e30,
    and scaled so that every non-zero weight is subnormal."""
    root = tmp_path_factory.mktemp("infer")
    paths = {}
    for precision, (dtype, _) in _PRECISIONS.items():
        base = weights.init_weights(desk_preset(precision=precision))
        for scale in ("one", "huge", "subnormal"):
            factor = {"one": 1.0, "huge": 1e30,
                      "subnormal": np.finfo(dtype).smallest_normal / 4}[scale]
            entries = {name: array * dtype(factor)
                       for name, array in base.entries.items()}
            path = root / f"{precision}-{scale}.cwc"
            weights.save_weights(dataclasses.replace(base, entries=entries),
                                 path)
            paths[precision, scale] = path
    return paths


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_PRECISIONS)),
       st.sampled_from(("one", "huge", "subnormal")),
       st.sampled_from(((1, 1), (1, 200), (32, 32))),
       st.sampled_from(("0.5", "1e-30", "max/4", "-max/4")))
def test_infer_exits_cleanly_on_extreme_values(infer_weights, tmp_path,
                                               capsys, precision, scale,
                                               extent, fill):
    dtype, flag = _PRECISIONS[precision]
    quarter = np.finfo(dtype).max / 4
    value = {"0.5": 0.5, "1e-30": 1e-30, "max/4": quarter,
             "-max/4": -quarter}[fill]
    height, width = extent
    clip = tmp_path / "clip.ctf"
    ctf.write_tensor(clip, np.full((8, height, width, 3), value, dtype=dtype))
    detections = tmp_path / "det.jsonl"
    detections.write_text("".join(
        json.dumps({"frame": t, "boxes": [[0, 0, width, height]]}) + "\n"
        for t in range(8)))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["infer", "--video", str(clip),
                         "--detections", str(detections),
                         "--weights", str(infer_weights[precision, scale]),
                         "--precision", flag])
    assert_clean_exit(code, capsys)


def assert_clean_exit(code, capsys):
    """A documented exit code, and either the result document alone or
    one error line on stderr; no traceback or warning."""
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert "Warning" not in err
    if code == 0:
        assert set(json.loads(out)) == {"logits", "probabilities", "class",
                                        "crop"}
    else:
        assert out == ""
        assert err.startswith("error: ")


# every number these values make is at most 48, apart from "9" * 400 and
# "1e400": infer refuses either as a size (not finite, or over the size
# limit of the parameters or priced peaks) and takes "9" * 400 as a seed.
# So a configuration that infer runs does a forward of at most INFER_MACS
# (0.70 G at frames = height = channels = 48; desk is 7.2 M) on a clip of
# at most 48 frames of 48 channels.  The drawn text holds no decimal digit
# of any script, since "9999" channels or rows would pass the size limit
# with a clip or a forward hundreds of megabytes large, and no surrogate,
# which a configuration file cannot hold
INFER_MACS = 10 ** 9
infer_config_values = st.one_of(
    st.sampled_from(("0", "-1", "1", "2", "3", "4", "6", "8", "16", "32",
                     "48", "0.5", "4.0", "nan", "inf", "1e400", "9" * 400,
                     "meaa", "eaa_original", "self_attention",
                     "meaa,self_attention", "single", "double", "")),
    st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=6))


@FUZZ
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), infer_config_values,
                       max_size=3))
def test_infer_configurations_stay_within_their_bound(values):
    # infer runs a configuration only if its parameters and priced peaks
    # pass the size limit
    try:
        cfg = parse_config(_config_text(values))
        weights.check_size({"parameters": weights.param_count(cfg)},
                           cfg.precision)
        report = analysis.count_flops(cfg)
        report.check_peaks("network input", cfg.precision)
    except ConfigError:
        return
    assert report.total <= INFER_MACS
    assert cfg.frames <= 48 and cfg.channels <= 48


def _flag_each_entry(data, entries):
    """Rewrite a container's manifest so each entry's precision flag names
    the dtype of that entry's payload."""
    data = bytearray(data)
    pos = 9
    for array in entries.values():
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2 + name_len + 1 + 4 * array.ndim
        data[pos] = ctf.FLAG_OF[precision_of(array)]
        pos += 9
    return bytes(data)


@pytest.fixture(scope="module")
def mixed_weights(tmp_path_factory):
    """Desk weights with every other entry in single precision: flagged
    entry by entry ("mixed"), and all flagged double ("mislabelled")."""
    root = tmp_path_factory.mktemp("mixed")
    base = weights.init_weights(desk_preset())
    entries = {name: array.astype(np.float32) if i % 2 else array
               for i, (name, array) in enumerate(base.entries.items())}
    data = weights.container_bytes(dataclasses.replace(base,
                                                       entries=entries))
    paths = {"mislabelled": root / "mislabelled.cwc",
             "mixed": root / "mixed.cwc"}
    paths["mislabelled"].write_bytes(data)
    paths["mixed"].write_bytes(_flag_each_entry(data, entries))
    return paths


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), infer_config_values,
                       max_size=3),
       st.sampled_from(("config", "double", "single", "mixed",
                        "mislabelled")),
       st.sampled_from((None, "f32", "f64")))
@example({"num_classes": "1"}, "config", None)
@example({"num_classes": "3"}, "config", None)
@example({"channels": "9" * 400}, "config", None)
def test_infer_exits_cleanly_on_any_config_and_weights(
        infer_weights, mixed_weights, tmp_path, capsys, values, source,
        flag):
    # the clip, and with source "config" the weights, follow the
    # configuration when it parses, so valid ones reach the network
    config = tmp_path / "model.cfg"
    config.write_text(_config_text(values))
    try:
        cfg = parse_config(config.read_text())
    except ConfigError:
        cfg = desk_preset()
    if flag is not None:
        cfg = dataclasses.replace(
            cfg, precision={"f32": "single", "f64": "double"}[flag])
    path = tmp_path / "model.cwc"
    if source == "config":
        try:
            weights.save_weights(weights.init_weights(cfg), path)
        except ConfigError:
            path = infer_weights["double", "one"]
    elif source in mixed_weights:
        path = mixed_weights[source]
    else:
        path = infer_weights[source, "one"]
    # infer refuses a configuration over the size limit before it reads
    # the clip, so such a configuration gets a desk-sized clip instead
    try:
        analysis.count_flops(cfg).check_peaks("network input", cfg.precision)
        geometry = cfg
    except ConfigError:
        geometry = desk_preset()
    clip = tmp_path / "clip.ctf"
    rng = np.random.default_rng(len(values))
    ctf.write_tensor(clip, rng.standard_normal(
        (geometry.frames, 24, 40, geometry.channels)).astype(
            dtype_of(cfg.precision)))
    detections = tmp_path / "det.jsonl"
    detections.write_text("".join(
        json.dumps({"frame": t, "boxes": [[0, 0, 40, 24]]}) + "\n"
        for t in range(geometry.frames)))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["infer", "--video", str(clip),
                         "--detections", str(detections),
                         "--weights", str(path), "--config", str(config)]
                        + (["--precision", flag] if flag else []))
    assert_clean_exit(code, capsys)
