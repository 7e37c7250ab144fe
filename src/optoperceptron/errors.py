"""Error types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value, bitmap, or parameter combination."""


class DegenerateBackgroundError(ConfigurationError):
    """A background read cannot reference a weight: its sum is zero or
    negative (dead readout region), or its frames clipped at the full well."""
