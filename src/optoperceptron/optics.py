"""Faraday-rotation readout chain.

Magnetization maps to a rotation angle, the crossed analyzer turns that into
an intensity I_out = I_in * c * (1 - m) with c = delta^2 / 2, and a strictly
linear camera (additive dark offset, optional Gaussian read noise) converts
intensity into pixel counts. One kernel renders every camera read as a
stack of frames from a single noise draw; the rest is frame averaging and
ROI integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import atomic_write, write_json
from .errors import ConfigurationError
from .synapse import SynapseSite

SMALL_ANGLE_LIMIT = 0.2  # radians; beyond this the small-angle chain is invalid


@dataclass(frozen=True)
class OpticalConstants:
    """Probe-side constants of the readout chain."""

    delta: float = 0.1
    intensity_in: float = 4.0e6

    def __post_init__(self):
        if not 0.0 < self.delta <= SMALL_ANGLE_LIMIT:
            raise ConfigurationError(
                f"analyzer offset delta must be in (0, {SMALL_ANGLE_LIMIT}] rad"
            )
        if self.intensity_in < 0:
            raise ConfigurationError("intensity_in must be >= 0")

    @property
    def c(self) -> float:
        """Analyzer leakage constant, exactly delta^2 / 2."""
        return self.delta * self.delta / 2.0


def analyzer_intensity(m: float, constants: OpticalConstants) -> float:
    """Probe intensity behind the crossed analyzer: I_in * c * (1 - m).

    Maximum at m = 0 (bright background), zero at m = 1 (fully written spot).
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("written fraction must be in [0, 1]")
    return constants.intensity_in * constants.c * (1.0 - m)


@dataclass(frozen=True)
class CameraConfig:
    """Linear monochrome camera: counts = gain * E + dark_offset (+ noise)."""

    width: int = 166
    height: int = 128
    pixel_scale_um: float = 1.0
    exposure_s: float = 0.010
    gain: float = 100.0
    dark_offset: float = 600.0
    read_noise: float = 0.0
    bit_depth: int = 16

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("sensor window must be at least 1x1 pixels")
        if self.pixel_scale_um <= 0:
            raise ConfigurationError("pixel_scale_um must be > 0")
        if self.exposure_s < 0:
            raise ConfigurationError("exposure_s must be >= 0")
        if self.gain <= 0:
            raise ConfigurationError("gain must be > 0")
        if self.dark_offset < 0:
            raise ConfigurationError("dark_offset must be >= 0")
        if self.read_noise < 0:
            raise ConfigurationError("read_noise must be >= 0")
        if not 8 <= self.bit_depth <= 32:
            raise ConfigurationError("bit_depth must be in 8..32")

    @property
    def pixel_area(self) -> float:
        """Area of one pixel at the sample plane, um^2."""
        return self.pixel_scale_um * self.pixel_scale_um

    @property
    def full_well(self) -> int:
        return (1 << self.bit_depth) - 1

    def in_field(self, x_um: float, y_um: float) -> bool:
        """Whether a sample-plane point lies on the sensor."""
        return (
            0.0 <= x_um <= self.width * self.pixel_scale_um
            and 0.0 <= y_um <= self.height * self.pixel_scale_um
        )


@dataclass(frozen=True)
class Roi:
    """Rectangular pixel region; must lie fully inside the frame it reads."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("roi must be at least 1x1 pixels")
        if self.x < 0 or self.y < 0:
            raise ValueError("roi origin must be non-negative")


@dataclass(frozen=True)
class SpotGeometry:
    """Written area on the sample: a disk at center with the given diameter.

    diameter_um may be 0, meaning no spot exists.
    """

    center_x_um: float
    center_y_um: float
    diameter_um: float

    def __post_init__(self):
        if self.diameter_um < 0:
            raise ValueError("diameter_um must be >= 0")


def spot_pixel_mask(spot: SpotGeometry, camera: CameraConfig) -> np.ndarray:
    """Boolean (height, width) mask of pixels whose centers fall in the spot."""
    scale = camera.pixel_scale_um
    ys, xs = np.mgrid[0 : camera.height, 0 : camera.width]
    px = (xs + 0.5) * scale
    py = (ys + 0.5) * scale
    r = spot.diameter_um / 2.0
    return (px - spot.center_x_um) ** 2 + (py - spot.center_y_um) ** 2 <= r * r


def expose_frames(
    n_frames: int,
    sites: Sequence[tuple[SynapseSite, SpotGeometry]],
    constants: OpticalConstants,
    camera: CameraConfig,
    rng: np.random.Generator | None = None,
    masks: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, bool]:
    """The readout kernel: n noise-independent frames of one scene.

    Pixels inside a written spot carry that site's intensity (uniform over
    the disk, scaled by the site's background_gain to model illumination
    inhomogeneity at that sample area); all other pixels carry the
    background state. One read-noise draw covers every frame, so an rng is
    required when read noise is enabled. Returns the integer counts, clipped
    to [0, full_well], as a float64 (n_frames, height, width) stack, and
    whether any pixel clipped at the full well. The clip pass runs only when
    the rounded stack's minimum is below 0 or its maximum above the full
    well; otherwise the stack is already in range.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if camera.read_noise > 0 and rng is None:
        raise ValueError("an rng is required when read noise is enabled")
    base = np.full(
        (camera.height, camera.width),
        _noiseless_counts(analyzer_intensity(0.0, constants), camera),
    )
    for idx, (site, spot) in enumerate(sites):
        if not camera.in_field(spot.center_x_um, spot.center_y_um):
            raise ValueError(
                f"spot center ({spot.center_x_um}, {spot.center_y_um}) um is "
                "outside the sensor field of view"
            )
        if spot.diameter_um == 0:
            continue
        mask = masks[idx] if masks is not None else spot_pixel_mask(spot, camera)
        base[mask] = _noiseless_counts(
            site.params.background_gain
            * analyzer_intensity(site.written_fraction, constants),
            camera,
        )
    shape = (n_frames, camera.height, camera.width)
    if camera.read_noise > 0:
        counts = rng.normal(0.0, camera.read_noise, size=shape)
        counts += base
    else:
        counts = np.broadcast_to(base, shape).copy()
    np.rint(counts, out=counts)
    full_well = camera.full_well
    clipped = bool(counts.max() > full_well)
    if clipped or counts.min() < 0:
        np.clip(counts, 0, full_well, out=counts)
    return counts, clipped


def _noiseless_counts(intensity: float, camera: CameraConfig) -> float:
    """Mean counts of a pixel at the given probe intensity, before rounding."""
    return camera.gain * intensity * camera.exposure_s / camera.pixel_area + camera.dark_offset


def average_frames(counts: np.ndarray) -> np.ndarray:
    """Per-pixel mean of a (frames, height, width) stack, rounded to counts.

    The float64 sums of at most 1000 frames of counts below 2**32 are exact,
    so the mean does not depend on the summation order. Integer stacks are
    accepted too.
    """
    if counts.ndim != 3:
        raise ValueError(f"expected a (frames, height, width) stack, got shape {counts.shape}")
    mean = counts.sum(axis=0, dtype=np.float64)
    mean /= counts.shape[0]
    np.rint(mean, out=mean)
    return mean.astype(np.int64)


def integrate_roi(counts: np.ndarray, roi: Roi) -> int:
    """Exact sum of the (height, width) pixel counts inside the ROI."""
    height, width = counts.shape
    if roi.x + roi.width > width or roi.y + roi.height > height:
        raise ValueError(f"roi {roi} does not fit in a {width}x{height} frame")
    region = counts[roi.y : roi.y + roi.height, roi.x : roi.x + roi.width]
    return int(region.sum())


@dataclass(frozen=True)
class BeamConfig:
    """Write beam at the sample: calibrated average power, repetition rate, waist."""

    average_power_w: float
    repetition_rate_hz: float = 1000.0
    waist_diameter_um: float = 100.0

    def __post_init__(self):
        if self.average_power_w < 0:
            raise ConfigurationError("average_power_w must be >= 0")
        if self.repetition_rate_hz <= 0:
            raise ConfigurationError("repetition_rate_hz must be > 0")
        if self.waist_diameter_um <= 0:
            raise ConfigurationError("waist_diameter_um must be > 0")

    @property
    def pulse_energy_j(self) -> float:
        return self.average_power_w / self.repetition_rate_hz


def write_pgm(counts: np.ndarray, clipped: bool, camera: CameraConfig, path) -> None:
    """Export one (height, width) frame as 16-bit binary PGM (P5) with a JSON
    metadata sidecar.

    counts and clipped are one frame of expose_frames and its flag; exposure,
    pixel area and bit depth come from the camera it was rendered with, width
    and height from counts.shape. Both files are written atomically. The
    sidecar's "clipped" flag is set when the sensor clipped or a count above
    65535 was cut to fit.
    """
    path = Path(path)
    maxval = 65535
    height, width = counts.shape
    scaled = np.clip(counts, 0, maxval).astype(">u2")
    clipped = clipped or bool((counts > maxval).any())
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    atomic_write(path, header + scaled.tobytes())
    meta = {
        "exposure_s": camera.exposure_s,
        "pixel_area_um2": camera.pixel_area,
        "bit_depth": camera.bit_depth,
        "clipped": clipped,
        "width": width,
        "height": height,
    }
    write_json(path.with_suffix(path.suffix + ".json"), meta)
