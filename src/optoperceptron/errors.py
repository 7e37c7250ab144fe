"""Error types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value, bitmap, or parameter combination."""


class DegenerateBackgroundError(ConfigurationError):
    """A background read cannot reference a weight: its frames clipped at the
    full well, or its sum is zero or negative (dead readout region). Raised
    only by Rig.capture_backgrounds, before the first write."""
