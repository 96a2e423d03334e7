"""Model configuration: validation, flat-file round trip, presets.

Configurations serialize to a flat ``key=value`` text form with one key per
line.  Serialization is canonical (fixed key order, normalized values), so
serialize -> parse -> serialize is byte-identical; parsing additionally
tolerates blank lines, ``#`` comments, and surrounding whitespace.
"""

from dataclasses import dataclass, replace

from .attention import ATTENTION_MEAA, ATTENTION_SELF, check_kind
from .errors import ConfigError
from .tensor import DTYPES

PATCH = 16          # spatial patch edge, fixed by the backbone kernel
TEMPORAL_KERNEL = 3  # backbone temporal extent, zero-padded to preserve T
DPE_KERNEL = 3      # positional-encoding window edge, all three axes

_KEY_ORDER = ("frames", "height", "width", "channels", "hidden", "heads",
              "local_depth", "lt_kernel", "ffn_ratio", "local_attention",
              "global_attention", "num_classes", "seed", "precision")


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
        def positive(name, value):
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got "
                                  f"{value!r}")
        positive("frames", self.frames)
        positive("height", self.height)
        positive("width", self.width)
        positive("channels", self.channels)
        positive("hidden", self.hidden)
        positive("heads", self.heads)
        positive("lt_kernel", self.lt_kernel)
        positive("num_classes", self.num_classes)
        if not isinstance(self.local_depth, int) or self.local_depth < 0:
            raise ConfigError(f"local_depth must be a non-negative integer, "
                              f"got {self.local_depth!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got "
                              f"{self.seed!r}")
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
    values = {
        "frames": cfg.frames, "height": cfg.height, "width": cfg.width,
        "channels": cfg.channels, "hidden": cfg.hidden, "heads": cfg.heads,
        "local_depth": cfg.local_depth, "lt_kernel": cfg.lt_kernel,
        "ffn_ratio": repr(float(cfg.ffn_ratio)),
        "local_attention": ",".join(cfg.local_attention),
        "global_attention": cfg.global_attention,
        "num_classes": cfg.num_classes, "seed": cfg.seed,
        "precision": cfg.precision,
    }
    return "".join(f"{key}={values[key]}\n" for key in _KEY_ORDER)


def parse_config(text):
    """Parse the flat ``key=value`` form back into a configuration."""
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
        if key not in _KEY_ORDER:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [key for key in _KEY_ORDER if key not in raw]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")

    def as_int(key):
        try:
            return int(raw[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got "
                              f"{raw[key]!r}") from None

    try:
        ratio = float(raw["ffn_ratio"])
    except ValueError:
        raise ConfigError(f"ffn_ratio must be a number, got "
                          f"{raw['ffn_ratio']!r}") from None
    local = tuple(k for k in raw["local_attention"].split(",") if k)
    return ModelConfig(
        frames=as_int("frames"), height=as_int("height"),
        width=as_int("width"), channels=as_int("channels"),
        hidden=as_int("hidden"), heads=as_int("heads"),
        local_depth=as_int("local_depth"), lt_kernel=as_int("lt_kernel"),
        ffn_ratio=ratio, local_attention=local,
        global_attention=raw["global_attention"],
        num_classes=as_int("num_classes"), seed=as_int("seed"),
        precision=raw["precision"])


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
