"""On-disk formats: tensor files, weight containers, flat config text."""

import builtins
import dataclasses
import errno
import os
import stat
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuenet import config, ctf, weights
from cuenet.attention import (ATTENTION_EAA, ATTENTION_KINDS, ATTENTION_MEAA,
                              ATTENTION_SELF)
from cuenet.config import desk_preset, parse_config, serialize_config
from cuenet.errors import ConfigError, FormatError, ShapeError


class TestTensorFile:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 3, 4),
                                       (2, 1, 3, 2)])
    def test_round_trip(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(0)
        array = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "t.ctf"
        ctf.write_tensor(path, array)
        back = ctf.read_tensor(path)
        assert back.dtype == dtype
        assert back.shape == shape
        assert np.array_equal(back, array)
        back[...] = 0.0  # must be writable

    def test_byte_layout_golden(self):
        # independently assembled expectation for a 2x1 double tensor
        array = np.array([[1.5], [-2.0]], dtype=np.float64)
        want = (b"CTF1" + struct.pack("<BB", 1, 2)
                + struct.pack("<2I", 2, 1)
                + struct.pack("<2d", 1.5, -2.0))
        assert ctf.tensor_bytes(array) == want

    def test_single_precision_flag_and_payload(self):
        array = np.array([3.0, -1.0], dtype=np.float32)
        data = ctf.tensor_bytes(array)
        assert data[4] == 0
        assert data[5] == 1
        assert data[10:] == struct.pack("<2f", 3.0, -1.0)

    def test_parse_at_offset(self):
        a = np.arange(4.0).reshape(2, 2)
        b = np.array([7.0], dtype=np.float32)
        blob = ctf.tensor_bytes(a) + ctf.tensor_bytes(b)
        first, end = ctf.tensor_from_bytes(blob)
        second, end2 = ctf.tensor_from_bytes(blob, end)
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)
        assert end2 == len(blob)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            ctf.tensor_from_bytes(b"NOPE" + bytes(8))

    def test_unknown_precision_flag(self):
        data = bytearray(ctf.tensor_bytes(np.zeros(2)))
        data[4] = 9
        with pytest.raises(FormatError, match="flag"):
            ctf.tensor_from_bytes(bytes(data))

    def test_truncations(self):
        data = ctf.tensor_bytes(np.zeros((2, 3)))
        for cut in (3, 5, 9, len(data) - 1):
            with pytest.raises(FormatError, match="truncated"):
                ctf.tensor_from_bytes(data[:cut])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ctf"
        path.write_bytes(ctf.tensor_bytes(np.zeros(3)) + b"x")
        with pytest.raises(FormatError, match="trailing"):
            ctf.read_tensor(path)

    def test_integer_payload_rejected(self):
        with pytest.raises(ShapeError):
            ctf.tensor_bytes(np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("buffer_type", [bytes, bytearray])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_is_read_only_view_of_buffer(self, buffer_type, dtype):
        array = np.arange(24.0, dtype=dtype).reshape(2, 3, 4)
        buffer = buffer_type(ctf.tensor_bytes(array))
        decoded, end = ctf.tensor_from_bytes(buffer)
        assert end == len(buffer)
        assert np.array_equal(decoded, array)
        assert not decoded.flags.writeable
        if sys.byteorder == "little":
            assert np.shares_memory(decoded, np.frombuffer(buffer, np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            decoded[0, 0, 0] = 1.0


def tiny_config(**overrides):
    base = dict(local_depth=1, local_attention=(ATTENTION_SELF,))
    base.update(overrides)
    return desk_preset(**base)


def build_container_bytes(entries, manifest_hook=None):
    """Assemble container bytes by hand so corrupt variants can be made."""
    blobs = {name: ctf.tensor_bytes(arr) for name, arr in entries}
    manifest_size = 9
    for name, arr in entries:
        manifest_size += 2 + len(name.encode()) + 1 + 4 * arr.ndim + 1 + 8
    rows = []
    offset = manifest_size
    for name, arr in entries:
        flag = 0 if arr.dtype == np.float32 else 1
        rows.append([name, arr.ndim, list(arr.shape), flag, offset])
        offset += len(blobs[name])
    if manifest_hook:
        manifest_hook(rows)
    out = [weights.MAGIC, struct.pack("<BI", weights.VERSION, len(rows))]
    for name, rank, shape, flag, blob_offset in rows:
        raw = name.encode()
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack(f"<B{rank}IBQ", rank, *shape, flag,
                               blob_offset))
    for name, _ in entries:
        out.append(blobs[name])
    return b"".join(out)


class TestWeightContainer:
    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config()
        container = weights.init_weights(cfg)
        path = tmp_path / "w.cwc"
        weights.save_weights(container, path)
        back = weights.load_weights(path)
        assert back.precision == container.precision
        assert back.names() == container.names()
        for name in container.names():
            assert np.array_equal(back[name], container[name])
        weights.bind_parameters(back, cfg)

    @pytest.mark.parametrize("precision, widen", [("single", False),
                                                  ("double", False),
                                                  ("single", True)])
    def test_loaded_entries_are_aligned_writable_and_own_data(
            self, tmp_path, precision, widen):
        path = tmp_path / "w.cwc"
        weights.save_weights(
            weights.init_weights(tiny_config(precision=precision)), path)
        back = weights.load_weights(path, precision="double" if widen
                                    else None, allow_widen=widen)
        for name in back.names():
            flags = back[name].flags
            assert flags.aligned and flags.writeable and flags.owndata, name

    def test_second_save_is_byte_identical(self, tmp_path):
        cfg = tiny_config(precision="single")
        container = weights.init_weights(cfg)
        first = tmp_path / "a.cwc"
        second = tmp_path / "b.cwc"
        weights.save_weights(container, first)
        weights.save_weights(weights.load_weights(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_widen_requires_flag_and_is_exact(self, tmp_path):
        cfg = tiny_config(precision="single")
        container = weights.init_weights(cfg)
        path = tmp_path / "w.cwc"
        weights.save_weights(container, path)
        with pytest.raises(ConfigError, match="widen"):
            weights.load_weights(path, precision="double")
        widened = weights.load_weights(path, precision="double",
                                       allow_widen=True)
        assert widened.precision == "double"
        for name in container.names():
            assert widened[name].dtype == np.float64
            assert np.array_equal(widened[name],
                                  container[name].astype(np.float64))

    def test_narrowing_refused(self, tmp_path):
        cfg = tiny_config(precision="double")
        path = tmp_path / "w.cwc"
        weights.save_weights(weights.init_weights(cfg), path)
        with pytest.raises(ConfigError, match="narrow"):
            weights.load_weights(path, precision="single",
                                 allow_widen=True)

    def test_matching_precision_request_is_no_op(self, tmp_path):
        cfg = tiny_config(precision="double")
        path = tmp_path / "w.cwc"
        weights.save_weights(weights.init_weights(cfg), path)
        back = weights.load_weights(path, precision="double")
        assert back.precision == "double"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.cwc"
        path.write_bytes(b"WXYZ" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            weights.load_weights(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "w.cwc"
        path.write_bytes(weights.MAGIC + struct.pack("<BI", 9, 0))
        with pytest.raises(FormatError, match="version"):
            weights.load_weights(path)

    def test_empty_container_rejected(self, tmp_path):
        path = tmp_path / "w.cwc"
        path.write_bytes(build_container_bytes([]))
        with pytest.raises(FormatError, match="no entries"):
            weights.load_weights(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        a = np.ones(2)
        data = build_container_bytes([("w", a), ("w", a.copy())])
        path = tmp_path / "w.cwc"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="duplicate"):
            weights.load_weights(path)

    def test_mixed_precision_rejected(self, tmp_path):
        data = build_container_bytes([("a", np.ones(2, dtype=np.float32)),
                                      ("b", np.ones(2, dtype=np.float64))])
        path = tmp_path / "w.cwc"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="mixed"):
            weights.load_weights(path)

    def test_manifest_payload_shape_disagreement(self, tmp_path):
        def hook(rows):
            rows[0][2] = [3]  # manifest claims 3 elements, payload has 2

        data = build_container_bytes([("w", np.ones(2))], manifest_hook=hook)
        path = tmp_path / "w.cwc"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="disagree"):
            weights.load_weights(path)

    def test_offset_beyond_file_rejected(self, tmp_path):
        def hook(rows):
            rows[0][4] = 10 ** 6

        data = build_container_bytes([("w", np.ones(2))], manifest_hook=hook)
        path = tmp_path / "w.cwc"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="offset"):
            weights.load_weights(path)

    def test_truncated_manifest(self, tmp_path):
        data = build_container_bytes([("w", np.ones(2))])
        path = tmp_path / "w.cwc"
        path.write_bytes(data[:12])
        with pytest.raises(FormatError, match="truncated"):
            weights.load_weights(path)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_entry_rejected_by_name(self, tmp_path, bad):
        poisoned = np.ones(3)
        poisoned[1] = bad
        data = build_container_bytes([("ok", np.ones(2)), ("bad", poisoned),
                                      ("also", np.full(2, np.nan))])
        path = tmp_path / "w.cwc"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="'bad'.*non-finite"):
            weights.load_weights(path)

    def test_undecodable_name_rejected(self, tmp_path):
        data = bytearray(build_container_bytes([("w", np.ones(2))]))
        data[11] = 0xff  # the one-byte entry name
        path = tmp_path / "w.cwc"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UTF-8"):
            weights.load_weights(path)


# the two library writers, each with two distinct payloads
WRITERS = {
    "save_weights": lambda path, seed: weights.save_weights(
        weights.init_weights(tiny_config(seed=seed)), path),
    "write_tensor": lambda path, seed: ctf.write_tensor(
        path, np.random.default_rng(seed).standard_normal((2, 3, 4))),
}


class FullDisk:
    """A file opened for writing whose every write fails with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch,
                                              writer):
        write = WRITERS[writer]
        # a name near the 255-byte limit: the temporary name may not grow it
        path = tmp_path / ("t" * 250)
        umask = os.umask(0o022)
        try:
            write(path, 1)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        path.chmod(0o640)
        old = path.read_bytes()
        real_open = builtins.open

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if set(mode) & set("wxa+") else fh

        monkeypatch.setattr(builtins, "open", full_disk_open)
        with pytest.raises(OSError) as raised:
            write(path, 2)
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        write(path, 2)
        assert path.read_bytes() != old
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_symlink_is_replaced_not_written_through(self, tmp_path, writer):
        write = WRITERS[writer]
        target = tmp_path / "target"
        write(target, 1)
        old = target.read_bytes()
        link = tmp_path / "link"
        link.symlink_to(target)
        write(link, 2)
        assert not link.is_symlink()
        assert target.read_bytes() == old
        assert link.read_bytes() != old


class TestWeightNaming:
    def test_desk_entry_count_and_parameters(self):
        cfg = desk_preset()
        specs = weights.expected_entries(cfg)
        assert len(specs) == 59
        assert weights.param_count(cfg) == 316098

    def test_param_count_matches_independent_arithmetic(self):
        cfg = desk_preset()
        d, hidden = 64, 256
        backbone = 3 * 16 * 16 * 3 * d + d + d
        ln = 2 * d
        lt = d * d + 3 * d + d * d
        self_attn = 4 * d * d
        ffn = d * hidden + hidden + hidden * d + d
        local = ln + lt + ln + self_attn + ln + ffn
        meaa = d + 2 * d + 2 * d * d + d + d * d + d + d * d + d
        global_part = 27 * d + ln + meaa + ln + ffn
        fusion_part = d + d * 2 + 2
        assert weights.param_count(cfg) \
            == backbone + 2 * local + global_part + fusion_part

    def test_names_unique_and_grouped(self):
        cfg = desk_preset()
        names = [spec.name for spec in weights.expected_entries(cfg)]
        assert len(names) == len(set(names))
        order = [names.index("backbone.conv.kernel"),
                 names.index("local0.ln1.gamma"),
                 names.index("local1.ln1.gamma"),
                 names.index("global.dpe.kernel"),
                 names.index("fusion.beta")]
        assert order == sorted(order)

    def test_attention_kind_changes_entry_set(self):
        cfg = desk_preset()
        base = {s.name for s in weights.expected_entries(cfg)}
        assert "global.attn.q" in base
        assert "global.attn.q_ln.gamma" in base
        eaa = {s.name for s in weights.expected_entries(
            cfg.with_attention(ATTENTION_EAA))}
        assert "global.attn.q" not in eaa
        assert "global.attn.w_a" in eaa
        gs = {s.name for s in weights.expected_entries(
            cfg.with_attention(ATTENTION_SELF))}
        assert "global.gs.wq" in gs
        assert "global.attn.wq" not in gs

    def test_spec_table_built_once_per_configuration(self):
        cfg = desk_preset()
        table = weights.expected_entries(cfg)
        assert isinstance(table, tuple)
        assert weights.expected_entries(desk_preset()) is table
        other = weights.expected_entries(cfg.with_attention(ATTENTION_EAA))
        assert other is not table
        assert [s.name for s in other] != [s.name for s in table]
        with pytest.raises(dataclasses.FrozenInstanceError):
            table[0].name = "renamed"

    def test_init_deterministic_and_structured(self):
        cfg = tiny_config()
        first = weights.init_weights(cfg)
        second = weights.init_weights(cfg)
        for name in first.names():
            assert np.array_equal(first[name], second[name])
        assert np.all(first["local0.ln1.gamma"] == 1.0)
        assert np.all(first["local0.ffn.b1"] == 0.0)
        assert np.all(first["fusion.beta"] == 0.0)
        limit = np.sqrt(3.0 / 64)
        value = first["local0.lt.value"]
        assert np.all(np.abs(value) <= limit)
        assert abs(value.var() - 1.0 / 64) < 0.2 / 64

    def test_seed_changes_draw(self):
        a = weights.init_weights(tiny_config(seed=1))
        b = weights.init_weights(tiny_config(seed=2))
        assert not np.array_equal(a["local0.lt.value"],
                                  b["local0.lt.value"])

    def test_single_and_double_share_the_draw(self):
        single = weights.init_weights(tiny_config(precision="single"))
        double = weights.init_weights(tiny_config(precision="double"))
        for name in single.names():
            assert np.array_equal(single[name],
                                  double[name].astype(np.float32))

    def test_validate_reports_offending_entries(self):
        cfg = tiny_config()
        container = weights.init_weights(cfg)
        del container.entries["fusion.bias"]
        with pytest.raises(ConfigError, match="fusion.bias"):
            weights.bind_parameters(container, cfg)
        container = weights.init_weights(cfg)
        container.entries["extra"] = np.zeros(1)
        with pytest.raises(ConfigError, match="extra"):
            weights.bind_parameters(container, cfg)
        container = weights.init_weights(cfg)
        container.entries["fusion.proj"] = np.zeros((2, 2))
        with pytest.raises(ConfigError, match="fusion.proj"):
            weights.bind_parameters(container, cfg)

    def test_validate_checks_precision(self):
        cfg = tiny_config(precision="double")
        container = weights.init_weights(tiny_config(precision="single"))
        with pytest.raises(ConfigError, match="precision"):
            weights.bind_parameters(container, cfg)

    def test_missing_lookup_names_entry(self):
        container = weights.init_weights(tiny_config())
        with pytest.raises(ConfigError, match="nope"):
            container["nope"]

    def test_size_limit_admits_single_precision_paper_preset(self):
        cfg = config.paper_preset()  # 1.41 GB in single precision
        assert weights.param_count(cfg) == 352961538
        assert weights.param_count(cfg) * 4 <= weights.INIT_SIZE_LIMIT

    def test_oversized_set_refused_before_drawing(self):
        with pytest.raises(ConfigError, match="limit"):
            weights.init_weights(desk_preset(hidden=100_000_000))


@st.composite
def valid_configs(draw):
    """Any valid configuration: both precisions, 0-3 local blocks of mixed
    kinds, integer and fractional ffn ratios."""
    heads = draw(st.integers(1, 8))
    depth = draw(st.integers(0, 3))
    kinds = st.sampled_from(ATTENTION_KINDS)
    return config.ModelConfig(
        frames=2 * draw(st.integers(1, 64)),
        height=16 * draw(st.integers(1, 2 ** 40)),
        width=16 * draw(st.integers(1, 64)),
        channels=draw(st.integers(1, 4)),
        hidden=heads * draw(st.integers(1, 32)), heads=heads,
        local_depth=depth, lt_kernel=2 * draw(st.integers(0, 3)) + 1,
        ffn_ratio=draw(st.one_of(st.integers(1, 8), st.floats(1.0, 8.0))),
        local_attention=tuple(draw(kinds) for _ in range(depth)),
        global_attention=draw(kinds),
        num_classes=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2 ** 64)),
        precision=draw(st.sampled_from(("single", "double"))))


class TestConfigText:
    def test_desk_preset_text_pinned(self):
        assert serialize_config(desk_preset()) == (
            "frames=8\nheight=32\nwidth=32\nchannels=3\nhidden=64\n"
            "heads=4\nlocal_depth=2\nlt_kernel=3\nffn_ratio=4.0\n"
            "local_attention=self_attention,self_attention\n"
            "global_attention=meaa\nnum_classes=2\nseed=2024\n"
            "precision=double\n")

    def test_keys_are_the_fields_in_order(self):
        keys = [line.partition("=")[0] for line in
                serialize_config(config.paper_preset()).splitlines()]
        assert keys == [f.name for f in
                        dataclasses.fields(config.ModelConfig)]

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_round_trip_of_any_valid_config(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_round_trip_is_byte_identical(self):
        for cfg in (desk_preset(),
                    desk_preset().with_attention(ATTENTION_MEAA,
                                                 "everywhere"),
                    desk_preset(local_depth=0, local_attention=()),
                    config.paper_preset()):
            text = serialize_config(cfg)
            assert parse_config(text) == cfg
            assert serialize_config(parse_config(text)) == text

    def test_parse_tolerates_comments_and_whitespace(self):
        noisy = serialize_config(desk_preset())
        for canonical, spaced in (
                ("hidden=64", "  hidden = 64  "),
                ("local_attention=self_attention,self_attention",
                 "local_attention=self_attention, self_attention")):
            assert canonical in noisy
            noisy = noisy.replace(canonical, spaced)
        noisy = "# leading comment\n\n" + noisy + "\n# trailing\n"
        assert parse_config(noisy) == desk_preset()

    def test_unknown_key(self):
        text = serialize_config(desk_preset()) + "color=blue\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)

    def test_duplicate_key(self):
        text = serialize_config(desk_preset()) + "seed=7\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_missing_key(self):
        text = serialize_config(desk_preset()).replace("seed=2024\n", "")
        with pytest.raises(ConfigError, match="missing keys: seed"):
            parse_config(text)

    def test_non_numeric_value(self):
        text = serialize_config(desk_preset()).replace("frames=8",
                                                       "frames=eight")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(text)

    def test_non_numeric_ratio(self):
        text = serialize_config(desk_preset()).replace("ffn_ratio=4.0",
                                                       "ffn_ratio=abc")
        with pytest.raises(ConfigError,
                           match="ffn_ratio must be a number, got 'abc'"):
            parse_config(text)

    def test_bare_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("frames\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("# fine\nbogus_key=1\n")


class TestConfigValidation:
    def test_desk_derived_geometry(self):
        cfg = desk_preset()
        assert cfg.frames_out == 4
        assert (cfg.grid_h, cfg.grid_w) == (2, 2)
        assert cfg.spatial_tokens == 4
        assert cfg.tokens_per_frame == 5
        assert cfg.token_count == 20
        assert cfg.ffn_hidden == 256

    def test_paper_derived_geometry(self):
        cfg = config.paper_preset()
        assert cfg.frames_out == 32
        assert (cfg.grid_h, cfg.grid_w) == (21, 21)
        assert cfg.token_count == 32 * (21 * 21 + 1)

    @pytest.mark.parametrize("overrides", [
        dict(frames=7),
        dict(height=33),
        dict(width=40),
        dict(heads=5),
        dict(lt_kernel=2),
        dict(ffn_ratio=0.0),
        dict(ffn_ratio=0.001),
        dict(frames=0),
        dict(seed=-1),
        dict(precision="half"),
        dict(global_attention="windowed"),
        dict(local_attention=(ATTENTION_SELF,)),
        dict(local_attention=[ATTENTION_SELF, ATTENTION_SELF]),
        dict(num_classes=0),
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            desk_preset(**overrides)

    def test_zero_depth_allowed(self):
        cfg = desk_preset(local_depth=0, local_attention=())
        assert cfg.local_attention == ()

    def test_with_attention_sites(self):
        cfg = desk_preset()
        assert cfg.with_attention(ATTENTION_EAA).global_attention \
            == ATTENTION_EAA
        local = cfg.with_attention(ATTENTION_MEAA, "local")
        assert local.local_attention == (ATTENTION_MEAA, ATTENTION_MEAA)
        assert local.global_attention == cfg.global_attention
        everywhere = cfg.with_attention(ATTENTION_EAA, "everywhere")
        assert everywhere.local_attention == (ATTENTION_EAA, ATTENTION_EAA)
        assert everywhere.global_attention == ATTENTION_EAA
        with pytest.raises(ConfigError):
            cfg.with_attention(ATTENTION_EAA, "somewhere")
