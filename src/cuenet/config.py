"""Model configuration: validation, flat-file round trip, presets.

Configurations serialize to a flat ``key=value`` text form, one line per
field of :class:`ModelConfig` in declaration order; the field's type picks
the text form (a float as its ``repr``, a tuple as a comma list).  The form
is canonical, so serialize -> parse -> serialize is byte-identical; parsing
additionally tolerates blank lines, ``#`` comments, and whitespace.
"""

from dataclasses import dataclass, fields, replace

from .attention import ATTENTION_MEAA, ATTENTION_SELF, check_kind
from .errors import ConfigError
from .tensor import DTYPES

PATCH = 16          # spatial patch edge, fixed by the backbone kernel
TEMPORAL_KERNEL = 3  # backbone temporal extent, zero-padded to preserve T
DPE_KERNEL = 3      # positional-encoding window edge, all three axes


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one model instance."""

    frames: int
    height: int
    width: int
    channels: int
    hidden: int
    heads: int
    local_depth: int
    lt_kernel: int
    ffn_ratio: float
    local_attention: tuple
    global_attention: str
    num_classes: int
    seed: int
    precision: str

    def __post_init__(self):
        for f in fields(self):  # every integer is positive, two may be 0
            value = getattr(self, f.name)
            floor = 0 if f.name in ("local_depth", "seed") else 1
            if f.type is int and (not isinstance(value, int) or value < floor):
                sign = "non-negative" if floor == 0 else "positive"
                raise ConfigError(f"{f.name} must be a {sign} integer, got "
                                  f"{value!r}")
        if self.frames % 2 != 0:
            raise ConfigError(f"frames must be even (stride-2 temporal "
                              f"selection), got {self.frames}")
        if self.height % PATCH != 0 or self.width % PATCH != 0:
            raise ConfigError(f"height and width must be multiples of "
                              f"{PATCH}, got {self.height}x{self.width}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide hidden "
                              f"width ({self.hidden})")
        if self.lt_kernel % 2 == 0:
            raise ConfigError(f"lt_kernel must be odd, got {self.lt_kernel}")
        try:  # nan, an infinity or an overflowing product has no width
            ffn_hidden = round(self.ffn_ratio * self.hidden)
        except (ValueError, OverflowError):
            raise ConfigError(f"ffn_ratio {self.ffn_ratio} gives no finite "
                              f"hidden width") from None
        if self.ffn_ratio <= 0:
            raise ConfigError(f"ffn_ratio must be positive, got "
                              f"{self.ffn_ratio}")
        if ffn_hidden < 1:
            raise ConfigError("ffn_ratio too small: empty hidden layer")
        if not isinstance(self.local_attention, tuple):
            raise ConfigError("local_attention must be a tuple of kinds")
        if len(self.local_attention) != self.local_depth:
            raise ConfigError(f"local_attention lists "
                              f"{len(self.local_attention)} kinds for "
                              f"local_depth {self.local_depth}")
        for kind in self.local_attention + (self.global_attention,):
            check_kind(kind)
        if self.precision not in DTYPES:
            raise ConfigError(f"precision must be one of {sorted(DTYPES)}, "
                              f"got {self.precision!r}")

    # -- derived geometry ---------------------------------------------------

    @property
    def frames_out(self):
        """Frames after the stride-2 temporal selection."""
        return self.frames // 2

    @property
    def grid_h(self):
        return self.height // PATCH

    @property
    def grid_w(self):
        return self.width // PATCH

    @property
    def spatial_tokens(self):
        return self.grid_h * self.grid_w

    @property
    def tokens_per_frame(self):
        return self.spatial_tokens + 1

    @property
    def token_count(self):
        """Flattened clip-wide token count seen by the global block."""
        return self.frames_out * self.tokens_per_frame

    @property
    def ffn_hidden(self):
        return int(round(self.ffn_ratio * self.hidden))

    def with_attention(self, kind, where="global"):
        """Copy with the global or every local attention kind replaced."""
        if where == "global":
            return replace(self, global_attention=kind)
        if where == "local":
            return replace(self,
                           local_attention=(kind,) * self.local_depth)
        if where == "everywhere":
            return replace(self, global_attention=kind,
                           local_attention=(kind,) * self.local_depth)
        raise ConfigError(f"unknown attention site {where!r}")


def serialize_config(cfg):
    """Canonical flat text form of a configuration."""
    lines = []
    for f in fields(ModelConfig):
        value = getattr(cfg, f.name)
        if f.type is float:
            value = repr(float(value))
        elif f.type is tuple:
            value = ",".join(value)
        lines.append(f"{f.name}={value}\n")
    return "".join(lines)


def _parse_value(key, kind, text):
    """One value's text as the field type ``kind`` asks for."""
    if kind is tuple:
        return tuple(k.strip() for k in text.split(",") if k.strip())
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {text!r}") from None


def parse_config(text):
    """Parse the flat ``key=value`` form back into a configuration."""
    kinds = {f.name: f.type for f in fields(ModelConfig)}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got "
                              f"{stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [key for key in kinds if key not in raw]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return ModelConfig(**{key: _parse_value(key, kind, raw[key])
                          for key, kind in kinds.items()})


def desk_preset(**overrides):
    """Small configuration sized for exhaustive verification on one core."""
    base = dict(frames=8, height=32, width=32, channels=3, hidden=64,
                heads=4, local_depth=2, lt_kernel=3, ffn_ratio=4.0,
                local_attention=(ATTENTION_SELF, ATTENTION_SELF),
                global_attention=ATTENTION_MEAA, num_classes=2, seed=2024,
                precision="double")
    base.update(overrides)
    return ModelConfig(**base)


def paper_preset(**overrides):
    """Full-scale configuration used only for cost accounting."""
    base = dict(frames=64, height=336, width=336, channels=3, hidden=1024,
                heads=16, local_depth=23, lt_kernel=3, ffn_ratio=4.0,
                local_attention=(ATTENTION_SELF,) * 23,
                global_attention=ATTENTION_MEAA, num_classes=2, seed=2024,
                precision="single")
    base.update(overrides)
    return ModelConfig(**base)
