"""Phenomenological magnetization model of one sample site under accumulated
helicity-dependent pulse exposure.

The observable state is a written fraction m in [0, 1]: m = 0 is the
background saturation, m = 1 the fully written (opposite) saturation. The
site keeps a clamped pulse odometer; m is a pure function of that odometer
through a response curve with a dead zone (~250 pulses, no change) and a
saturation knee (~600 pulses). Write and erase packets move the odometer in
opposite directions, which makes write/erase cycles exactly reversible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

NOMINAL_DEAD_ZONE_PULSES = 250
NOMINAL_SATURATION_PULSES = 600


class Helicity(enum.Enum):
    """Circular polarization handedness, abstracted to its effect on m.

    WRITE drives m upward (darkens the readout spot), ERASE drives it back.
    """

    WRITE = "write"
    ERASE = "erase"


# Read once per packet: a module name costs a tenth of Helicity.WRITE.
_WRITE = Helicity.WRITE


def _smoothstep(t: float) -> float:
    return t * t * (3.0 - 2.0 * t)


def _logistic(t: float) -> float:
    # Rescaled so the endpoints are hit exactly at t = 0 and t = 1.
    k = 10.0
    lo = 1.0 / (1.0 + math.exp(k / 2.0))
    hi = 1.0 / (1.0 + math.exp(-k / 2.0))
    raw = 1.0 / (1.0 + math.exp(-k * (t - 0.5)))
    return (raw - lo) / (hi - lo)


def _linear(t: float) -> float:
    return t


# Normalized curve shapes on t in [0, 1]; all map 0 -> 0 and 1 -> 1 and are
# strictly increasing in between.
CURVE_FAMILIES = {
    "smoothstep": _smoothstep,
    "logistic": _logistic,
    "linear": _linear,
}


@dataclass(frozen=True)
class InhomogeneityParams:
    """Per-site response parameters.

    Sites across the sample differ in onset, knee, and local illumination;
    this captures that spread with three numbers around the nominal
    250 / 600 / 1.0.
    """

    dead_zone_pulses: int = NOMINAL_DEAD_ZONE_PULSES
    saturation_pulses: int = NOMINAL_SATURATION_PULSES
    background_gain: float = 1.0
    curve: str = "smoothstep"
    margin_pulses: int | None = None

    def __post_init__(self):
        if self.dead_zone_pulses < 0:
            raise ConfigurationError("dead_zone_pulses must be >= 0")
        if self.saturation_pulses <= self.dead_zone_pulses:
            raise ConfigurationError(
                "saturation_pulses must exceed dead_zone_pulses "
                f"({self.saturation_pulses} <= {self.dead_zone_pulses})"
            )
        if self.background_gain <= 0:
            raise ConfigurationError("background_gain must be > 0")
        if self.curve not in CURVE_FAMILIES:
            raise ConfigurationError(
                f"unknown curve family {self.curve!r}; "
                f"choose from {sorted(CURVE_FAMILIES)}"
            )
        if self.margin_pulses is not None and self.margin_pulses < 0:
            raise ConfigurationError("margin_pulses must be >= 0")

    @property
    def exposure_ceiling(self) -> int:
        """Upper clamp of the pulse odometer.

        Defaults to saturation + saturation, which keeps write-then-erase an
        exact identity for any packet of up to saturation_pulses pulses even
        on an overdriven site.
        """
        margin = (
            self.saturation_pulses if self.margin_pulses is None else self.margin_pulses
        )
        return self.saturation_pulses + margin


def response_curve(effective_pulses: float, params: InhomogeneityParams) -> float:
    """Written fraction m for a given accumulated signed pulse count.

    Total function: 0 below the dead zone, 1 at or beyond saturation,
    strictly increasing and continuous in between.
    """
    span = params.saturation_pulses - params.dead_zone_pulses
    t = (effective_pulses - params.dead_zone_pulses) / span
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return CURVE_FAMILIES[params.curve](t)


@dataclass(frozen=True)
class SynapseSite:
    """One addressable sample area holding a single network weight."""

    written_fraction: float
    accumulated_pulses: int
    params: InhomogeneityParams

    def __post_init__(self):
        if not 0.0 <= self.written_fraction <= 1.0:
            raise ValueError("written_fraction must stay in [0, 1]")


def fresh_site(params: InhomogeneityParams | None = None) -> SynapseSite:
    """An unwritten site at the background saturation."""
    return SynapseSite(0.0, 0, params or InhomogeneityParams())


def apply_packet(site: SynapseSite, helicity: Helicity, pulse_count: int) -> SynapseSite:
    """Deliver one pulse packet; returns the updated site.

    The odometer is floor-clamped at 0 and ceiling-clamped at the site's
    exposure ceiling, then m is recomputed from the response curve.
    """
    if pulse_count < 0:
        raise ValueError("pulse_count must be >= 0")
    delta = pulse_count if helicity is _WRITE else -pulse_count
    accumulated = min(max(site.accumulated_pulses + delta, 0), site.params.exposure_ceiling)
    return SynapseSite(response_curve(accumulated, site.params), accumulated, site.params)


def sample_sites(
    seed,
    n_sites: int,
    spread: float,
    nominal: InhomogeneityParams | None = None,
) -> list[InhomogeneityParams]:
    """Draw per-site parameters with +-spread relative deviation from nominal.

    Deterministic for a given seed. Raises if the spread is large enough to
    let a dead zone reach its saturation knee.
    """
    nominal = nominal or InhomogeneityParams()
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    worst_dead = nominal.dead_zone_pulses * (1.0 + spread)
    worst_sat = nominal.saturation_pulses * (1.0 - spread)
    if worst_dead >= worst_sat or spread >= 1.0:
        raise ConfigurationError(
            f"spread {spread} can invert the dead-zone/saturation ordering "
            f"({nominal.dead_zone_pulses}/{nominal.saturation_pulses})"
        )
    rng = np.random.default_rng(seed)
    sites = []
    for _ in range(n_sites):
        dead, sat, gain = rng.uniform(-spread, spread, size=3)
        sites.append(
            replace(
                nominal,
                dead_zone_pulses=int(round(nominal.dead_zone_pulses * (1.0 + dead))),
                saturation_pulses=int(round(nominal.saturation_pulses * (1.0 + sat))),
                background_gain=nominal.background_gain * (1.0 + gain),
            )
        )
    return sites
