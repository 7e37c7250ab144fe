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

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np


# Circular polarization handedness, abstracted to its effect on m: WRITE
# drives m upward (darkens the readout spot), ERASE drives it back.
WRITE, ERASE = "write", "erase"


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


class InhomogeneityParams(NamedTuple):
    """Per-site response parameters.

    Sites across the sample differ in onset, knee, and local illumination;
    this captures that spread with three numbers around a nominal site.
    """

    dead_zone_pulses: int
    saturation_pulses: int
    background_gain: float
    curve: str
    margin_pulses: int | None

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


class SynapseSite(NamedTuple):
    """One addressable sample area holding a single network weight.

    written_fraction is unchecked: apply_packet takes it from
    response_curve, which returns values in [0, 1] only.
    """

    written_fraction: float
    accumulated_pulses: int
    params: InhomogeneityParams


def fresh_site(params: InhomogeneityParams) -> SynapseSite:
    """An unwritten site at the background saturation."""
    return SynapseSite(0.0, 0, params)


def apply_packet(site: SynapseSite, helicity: str, pulse_count: int) -> SynapseSite:
    """Deliver one pulse packet; returns the updated site.

    The odometer is floor-clamped at 0 and ceiling-clamped at the site's
    exposure ceiling, then m is recomputed from the response curve. It
    starts at 0 and stays in [0, ceiling], so a write (pulse_count >= 0)
    can only cross the ceiling and an erase only the floor.
    """
    if helicity == WRITE:
        accumulated = min(site.accumulated_pulses + pulse_count, site.params.exposure_ceiling)
    else:
        accumulated = max(site.accumulated_pulses - pulse_count, 0)
    return SynapseSite(response_curve(accumulated, site.params), accumulated, site.params)


def sample_sites(
    rng: np.random.Generator,
    n_sites: int,
    spread: float,
    nominal: InhomogeneityParams,
) -> list[InhomogeneityParams]:
    """Draw per-site parameters with +-spread relative deviation from nominal.

    Deterministic for a given generator state. Each dead zone and
    saturation is rounded on its own, so a spread that keeps the unrounded
    ranges apart can still round one site's two to the same pulse count;
    that site would have no response span, and the draw fails naming it.
    """
    sites = []
    for index in range(n_sites):
        dead, sat, gain = rng.uniform(-spread, spread, size=3)
        dead_zone = int(round(nominal.dead_zone_pulses * (1.0 + dead)))
        saturation = int(round(nominal.saturation_pulses * (1.0 + sat)))
        if saturation <= dead_zone:
            raise ConfigurationError(
                f"site index {index} rounds to dead zone {dead_zone} and saturation "
                f"{saturation} pulses, which leaves no response span; lower "
                f"synapse.site_spread {spread}"
            )
        sites.append(
            nominal._replace(
                dead_zone_pulses=dead_zone,
                saturation_pulses=saturation,
                background_gain=nominal.background_gain * (1.0 + gain),
            )
        )
    return sites
