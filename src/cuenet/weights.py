"""Weight naming, initialization, and the binary weight container.

Every model parameter has a dotted name derived from its position in the
network.  :func:`layout` is the one place the layout is written: one walk
in canonical order names each entry, gives its extents and init rule, and
builds the typed parameter groups.  :func:`expected_entries` records it as
a table; :func:`bind_parameters` runs it over a container, so checking and
binding are one pass.  Initialization draws from a single seeded generator
in canonical order, so equal configurations produce bit-identical
containers.

Container layout, all integers little-endian:

* 4-byte magic ``CWC1``, 1 byte version (1), u32 entry count
* per entry: u16 name length, UTF-8 name, u8 rank, rank u32 extents,
  u8 precision flag (0 single, 1 double), u64 absolute payload offset
* payloads: one standalone tensor-file blob per entry, concatenated

Payload blobs repeat shape and precision; loaders verify both against the
manifest.  Loading into a wider precision (single to double, exact) must be
requested explicitly; narrowing is always refused.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import ctf
from .attention import (ATTENTION_MEAA, ATTENTION_SELF, AdditiveParams,
                        MhsaParams)
from .blocks import FfnParams, LocalBlockParams, LtParams
from .config import DPE_KERNEL, PATCH, TEMPORAL_KERNEL
from .errors import ConfigError, FormatError
from .fusion import FusionParams
from .global_block import GlobalBlockParams
from .tensor import LnParams, dtype_of, precision_of

MAGIC = b"CWC1"
VERSION = 1


@dataclass(frozen=True)
class WeightSpec:
    """Name, extents, and initialization rule for one parameter."""

    name: str
    shape: tuple
    init: str          # zeros | ones | token | uniform
    fan_in: int = 0    # uniform rule only


@dataclass
class ModelParams:
    """Weight container contents bound into typed parameter groups."""

    patch_kernel: np.ndarray
    patch_bias: np.ndarray
    class_token: np.ndarray
    local_blocks: list
    global_block: GlobalBlockParams
    fusion: FusionParams


def layout(cfg, take):
    """Walk every parameter of ``cfg`` in container order.

    Calls ``take(name, shape, init, fan_in)`` once per entry (``fan_in`` is
    0 except for the uniform rule) and returns the :class:`ModelParams`
    built from what ``take`` returns.  Keyword arguments evaluate left to
    right, so each group's fields are listed in container order.
    """
    d, hidden = cfg.hidden, cfg.ffn_hidden
    row, square = (d,), (d, d)

    def ln(prefix):
        return LnParams(gamma=take(f"{prefix}.gamma", row, "ones", 0),
                        beta=take(f"{prefix}.beta", row, "zeros", 0))

    def ffn(prefix):
        return FfnParams(
            w1=take(f"{prefix}.w1", (d, hidden), "uniform", d),
            b1=take(f"{prefix}.b1", (hidden,), "zeros", 0),
            w2=take(f"{prefix}.w2", (hidden, d), "uniform", hidden),
            b2=take(f"{prefix}.b2", row, "zeros", 0))

    def attention_group(base, kind):
        if kind == ATTENTION_SELF:
            return MhsaParams(*[take(f"{base}.gs.{proj}", square, "uniform", d)
                                for proj in ("wq", "wk", "wv", "fuse")])
        prefix = f"{base}.attn"
        modified = kind == ATTENTION_MEAA
        return AdditiveParams(
            q=take(f"{prefix}.q", (1, d), "token", 0) if modified else None,
            q_ln=ln(f"{prefix}.q_ln") if modified else None,
            wq=take(f"{prefix}.wq", square, "uniform", d),
            wk=take(f"{prefix}.wk", square, "uniform", d),
            w_a=take(f"{prefix}.w_a", row, "uniform", d),
            w1=take(f"{prefix}.w1", square, "uniform", d),
            b1=take(f"{prefix}.b1", row, "zeros", 0),
            w2=take(f"{prefix}.w2", square, "uniform", d),
            b2=take(f"{prefix}.b2", row, "zeros", 0))

    kt = cfg.lt_kernel
    return ModelParams(
        patch_kernel=take("backbone.conv.kernel",
                          (TEMPORAL_KERNEL, PATCH, PATCH, cfg.channels, d),
                          "uniform",
                          TEMPORAL_KERNEL * PATCH * PATCH * cfg.channels),
        patch_bias=take("backbone.conv.bias", row, "zeros", 0),
        class_token=take("backbone.class_token", (1, d), "token", 0),
        local_blocks=[LocalBlockParams(
            ln1=ln(f"local{i}.ln1"),
            lt=LtParams(
                value=take(f"local{i}.lt.value", square, "uniform", d),
                kernel=take(f"local{i}.lt.kernel", (kt, 1, 1, d), "uniform",
                            kt),
                fuse=take(f"local{i}.lt.fuse", square, "uniform", d)),
            ln2=ln(f"local{i}.ln2"), attn_kind=kind,
            attn=attention_group(f"local{i}", kind),
            ln3=ln(f"local{i}.ln3"), ffn=ffn(f"local{i}.ffn"))
            for i, kind in enumerate(cfg.local_attention)],
        global_block=GlobalBlockParams(
            dpe_kernel=take("global.dpe.kernel",
                            (DPE_KERNEL, DPE_KERNEL, DPE_KERNEL, d),
                            "uniform", DPE_KERNEL ** 3),
            ln_tokens=ln("global.ln_tokens"),
            attn_kind=cfg.global_attention,
            attn=attention_group("global", cfg.global_attention),
            ln_ffn=ln("global.ln_ffn"), ffn=ffn("global.ffn")),
        fusion=FusionParams(
            beta=take("fusion.beta", (1, d), "zeros", 0),
            proj=take("fusion.proj", (d, cfg.num_classes), "uniform", d),
            bias=take("fusion.bias", (cfg.num_classes,), "zeros", 0)))


@functools.lru_cache(maxsize=32)
def expected_entries(cfg):
    """Canonical parameter table for a configuration, in container order.

    A tuple of frozen specs, built once per (frozen, hashable)
    configuration and shared by every later call with an equal one.
    """
    specs = []
    layout(cfg, lambda *fields: specs.append(WeightSpec(*fields)))
    return tuple(specs)


def param_count(cfg):
    """Total scalar parameter count for a configuration."""
    total = 0
    for spec in expected_entries(cfg):
        size = 1
        for extent in spec.shape:
            size *= extent
        total += size
    return total


@dataclass
class WeightContainer:
    """Named parameter tensors, uniform precision, insertion-ordered."""

    entries: dict
    precision: str

    def __getitem__(self, name):
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(f"missing weight entry {name!r}") from None

    def names(self):
        return list(self.entries)


# Largest parameter set, in bytes at the configured precision, that
# init_weights draws; the paper preset in single precision needs 1.41 GB.
INIT_SIZE_LIMIT = 2 << 30


def init_weights(cfg):
    """Draw a fresh parameter set for a configuration.

    One generator seeded from the configuration, consumed in canonical entry
    order.  Linear maps use a zero-mean uniform with variance 1/fan_in;
    query and class tokens a 0.02-scaled normal; normalization gains one,
    every bias and the fusion gate zero.  Draws happen in double precision
    and are cast to the configured precision afterwards, so single and
    double containers describe the same underlying draw.  A set larger than
    :data:`INIT_SIZE_LIMIT` bytes raises ``ConfigError`` before any draw.
    """
    dtype = dtype_of(cfg.precision)
    if param_count(cfg) * np.dtype(dtype).itemsize > INIT_SIZE_LIMIT:
        raise ConfigError(f"parameters for this configuration exceed the "
                          f"{INIT_SIZE_LIMIT >> 30} GiB limit in "
                          f"{cfg.precision} precision")
    rng = np.random.default_rng(cfg.seed)
    entries = {}
    for spec in expected_entries(cfg):
        if spec.init == "zeros":
            value = np.zeros(spec.shape)
        elif spec.init == "ones":
            value = np.ones(spec.shape)
        elif spec.init == "token":
            value = 0.02 * rng.standard_normal(spec.shape)
        elif spec.init == "uniform":
            limit = np.sqrt(3.0 / spec.fan_in)
            value = rng.uniform(-limit, limit, spec.shape)
        else:  # unreachable: specs are built above
            raise ConfigError(f"unknown init rule {spec.init!r}")
        entries[spec.name] = value.astype(dtype)
    return WeightContainer(entries=entries, precision=cfg.precision)


def bind_parameters(container, cfg):
    """Check ``container`` against ``cfg`` and bind it into
    :class:`ModelParams` in one walk of the layout.

    ``ConfigError`` names, in this order of precedence: every missing
    entry, the unexpected ones, a precision other than the configured one,
    the first entry with wrong extents.
    """
    entries = container.entries
    missing, mismatched = [], []

    def take(name, shape, init, fan_in):
        try:
            array = entries[name]
        except KeyError:
            missing.append(name)
            return None
        if array.shape != shape:
            mismatched.append(f"weight {name!r} has extents "
                              f"{tuple(array.shape)}, expected {shape}")
        return array

    params = layout(cfg, take)
    if missing:
        raise ConfigError(f"weights missing entries: "
                          f"{', '.join(sorted(missing))}")
    specs = expected_entries(cfg)
    if len(entries) != len(specs):
        unexpected = sorted(set(entries) - {spec.name for spec in specs})
        raise ConfigError(f"weights hold unexpected entries: "
                          f"{', '.join(unexpected)}")
    if container.precision != cfg.precision:
        raise ConfigError(f"weights are {container.precision} precision but "
                          f"the configuration wants {cfg.precision}")
    if mismatched:
        raise ConfigError(mismatched[0])
    return params


def container_bytes(container):
    """Serialize a container to the canonical byte layout."""
    names = container.names()
    blobs = []
    manifest_size = 4 + 1 + 4
    encoded = []
    for name in names:
        raw = name.encode("utf-8")
        array = container.entries[name]
        encoded.append((raw, array))
        manifest_size += 2 + len(raw) + 1 + 4 * array.ndim + 1 + 8
    offset = manifest_size
    parts = [MAGIC, struct.pack("<BI", VERSION, len(names))]
    for raw, array in encoded:
        blob = ctf.tensor_bytes(array)
        blobs.append(blob)
        flag = ctf.FLAG_OF[container.precision]
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack(f"<B{array.ndim}IBQ", array.ndim,
                                 *array.shape, flag, offset))
        offset += len(blob)
    return b"".join(parts + blobs)


def save_weights(container, path):
    """Write a container to ``path``."""
    data = container_bytes(container)
    with open(path, "wb") as fh:
        fh.write(data)


def load_weights(path, precision=None, allow_widen=False):
    """Read a container from ``path``.

    With ``precision`` set, a stored precision that differs is an error
    unless it is single and ``allow_widen`` permits the exact single-to-
    double promotion.  An entry holding NaN or an infinity is a format
    error that names the first such entry.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 9 or data[:4] != MAGIC:
        raise FormatError(f"bad weight container magic {data[:4]!r}")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    pos = 9
    manifest = []
    for _ in range(count):
        if len(data) - pos < 2:
            raise FormatError("weight manifest truncated")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if len(data) - pos < name_len + 1:
            raise FormatError("weight manifest truncated")
        try:
            name = data[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"weight name at byte {pos} is not valid "
                              f"UTF-8") from None
        pos += name_len
        rank = data[pos]
        pos += 1
        if len(data) - pos < 4 * rank + 9:
            raise FormatError("weight manifest truncated")
        shape = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        flag = data[pos]
        if flag not in ctf.PRECISION_OF_FLAG:
            raise FormatError(f"weight {name!r}: unknown precision flag "
                              f"{flag}")
        (blob_offset,) = struct.unpack_from("<Q", data, pos + 1)
        pos += 9
        manifest.append((name, shape, ctf.PRECISION_OF_FLAG[flag],
                         blob_offset))
    entries = {}
    stored_precision = None
    for name, shape, entry_precision, blob_offset in manifest:
        if name in entries:
            raise FormatError(f"duplicate weight entry {name!r}")
        if blob_offset > len(data):
            raise FormatError(f"weight {name!r}: payload offset "
                              f"{blob_offset} beyond file end")
        array, _ = ctf.tensor_from_bytes(data, blob_offset)
        if tuple(array.shape) != tuple(shape):
            raise FormatError(f"weight {name!r}: payload extents "
                              f"{tuple(array.shape)} disagree with manifest "
                              f"{tuple(shape)}")
        if precision_of(array) != entry_precision:
            raise FormatError(f"weight {name!r}: payload precision disagrees "
                              f"with manifest {entry_precision}")
        if not np.isfinite(array).all():
            raise FormatError(f"weight {name!r} holds a non-finite value")
        if stored_precision is None:
            stored_precision = entry_precision
        elif stored_precision != entry_precision:
            raise FormatError("mixed precisions inside one weight container")
        entries[name] = array
    if stored_precision is None:
        raise FormatError("weight container holds no entries")
    container = WeightContainer(entries=entries, precision=stored_precision)
    if precision is not None and precision != stored_precision:
        if stored_precision == "single" and precision == "double" \
                and allow_widen:
            container = WeightContainer(
                entries={name: arr.astype(np.float64)
                         for name, arr in entries.items()},
                precision="double")
        elif stored_precision == "single" and precision == "double":
            raise ConfigError("weights are single precision; pass the widen "
                              "flag to promote them to double")
        else:
            raise ConfigError(f"weights are {stored_precision} precision and "
                              f"cannot be narrowed to {precision}")
    return container
