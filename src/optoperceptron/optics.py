"""Faraday-rotation readout chain.

Magnetization maps to a rotation angle, the crossed analyzer turns that into
an intensity I_out = I_in * c * (1 - m) with c = delta^2 / 2, and a strictly
linear camera (additive dark offset, optional Gaussian read noise) converts
intensity into pixel counts. One kernel renders every camera read as a
stack of frames from a single noise draw; the rest is frame averaging, ROI
integration, and the threshold-fluence write-spot geometry for flat-top and
Gaussian beams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import atomic_write
from .errors import ConfigurationError
from .synapse import SynapseSite

SMALL_ANGLE_LIMIT = 0.2  # radians; beyond this the small-angle chain is invalid


@dataclass(frozen=True)
class OpticalConstants:
    """Probe-side constants of the readout chain.

    The wavelength is provenance metadata only; nothing downstream is
    dispersive.
    """

    gamma: float = 0.01
    delta: float = 0.1
    intensity_in: float = 4.0e6
    wavelength_nm: float = 800.0

    def __post_init__(self):
        if not 0.0 < self.delta <= SMALL_ANGLE_LIMIT:
            raise ConfigurationError(
                f"analyzer offset delta must be in (0, {SMALL_ANGLE_LIMIT}] rad"
            )
        if not 0.0 <= self.gamma <= SMALL_ANGLE_LIMIT:
            raise ConfigurationError(
                f"rotation coefficient gamma must be in [0, {SMALL_ANGLE_LIMIT}]"
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


@dataclass
class Frame:
    """One camera exposure: integer counts plus acquisition metadata."""

    counts: np.ndarray
    exposure_s: float
    pixel_area: float
    bit_depth: int
    clipped: bool = False

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    @property
    def height(self) -> int:
        return self.counts.shape[0]


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

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class SpotGeometry:
    """Written area on the sample: a disk at center with the given diameter.

    diameter_um may be 0, meaning the beam never crossed the write threshold
    and no spot exists.
    """

    center_x_um: float
    center_y_um: float
    diameter_um: float
    profile: str = "flattop"

    def __post_init__(self):
        if self.diameter_um < 0:
            raise ValueError("diameter_um must be >= 0")
        if self.profile not in ("flattop", "gaussian"):
            raise ValueError("profile must be 'flattop' or 'gaussian'")


def spot_pixel_mask(spot: SpotGeometry, camera: CameraConfig) -> np.ndarray:
    """Boolean (height, width) mask of pixels whose centers fall in the spot."""
    scale = camera.pixel_scale_um
    ys, xs = np.mgrid[0 : camera.height, 0 : camera.width]
    px = (xs + 0.5) * scale
    py = (ys + 0.5) * scale
    r = spot.diameter_um / 2.0
    return (px - spot.center_x_um) ** 2 + (py - spot.center_y_um) ** 2 <= r * r


def expose_frame(
    sites: Sequence[tuple[SynapseSite, SpotGeometry]],
    constants: OpticalConstants,
    camera: CameraConfig,
    rng: np.random.Generator | None = None,
    background_written_fraction: float = 0.0,
    masks: Sequence[np.ndarray] | None = None,
) -> Frame:
    """Render one frame of the configured sensor window."""
    counts, clipped = expose_frames(
        1, sites, constants, camera, rng,
        background_written_fraction=background_written_fraction, masks=masks,
    )
    return Frame(
        counts=counts[0].astype(np.int64),
        exposure_s=camera.exposure_s,
        pixel_area=camera.pixel_area,
        bit_depth=camera.bit_depth,
        clipped=clipped,
    )


def expose_frames(
    n_frames: int,
    sites: Sequence[tuple[SynapseSite, SpotGeometry]],
    constants: OpticalConstants,
    camera: CameraConfig,
    rng: np.random.Generator | None = None,
    background_written_fraction: float = 0.0,
    masks: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, bool]:
    """The readout kernel: n noise-independent frames of one scene.

    Pixels inside a written spot carry that site's intensity (uniform over
    the disk, scaled by the site's background_gain to model illumination
    inhomogeneity at that sample area); all other pixels carry the
    background state. One read-noise draw covers every frame, so an rng is
    required when read noise is enabled. Returns the integer counts, clipped
    to [0, full_well], as a float64 (n_frames, height, width) stack, and
    whether any pixel clipped.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if camera.read_noise > 0 and rng is None:
        raise ValueError("an rng is required when read noise is enabled")
    intensity = np.full(
        (camera.height, camera.width),
        analyzer_intensity(background_written_fraction, constants),
        dtype=np.float64,
    )
    width_um = camera.width * camera.pixel_scale_um
    height_um = camera.height * camera.pixel_scale_um
    for idx, (site, spot) in enumerate(sites):
        if not (0.0 <= spot.center_x_um <= width_um and 0.0 <= spot.center_y_um <= height_um):
            raise ValueError(
                f"spot center ({spot.center_x_um}, {spot.center_y_um}) um is "
                "outside the sensor field of view"
            )
        if spot.diameter_um == 0:
            continue
        mask = masks[idx] if masks is not None else spot_pixel_mask(spot, camera)
        intensity[mask] = (
            site.params.background_gain
            * analyzer_intensity(site.written_fraction, constants)
        )
    base = camera.gain * intensity * camera.exposure_s / camera.pixel_area + camera.dark_offset
    shape = (n_frames, camera.height, camera.width)
    if camera.read_noise > 0:
        counts = rng.normal(0.0, camera.read_noise, size=shape)
        counts += base
    else:
        counts = np.broadcast_to(base, shape).copy()
    np.rint(counts, out=counts)
    clipped = bool((counts > camera.full_well).any())
    np.clip(counts, 0, camera.full_well, out=counts)
    return counts, clipped


def average_frames(counts: np.ndarray) -> np.ndarray:
    """Per-pixel mean of a (frames, height, width) stack, rounded to counts.

    The float64 sums of at most 1000 frames of counts below 2**32 are exact,
    so the mean does not depend on the summation order.
    """
    if counts.ndim != 3:
        raise ValueError(f"expected a (frames, height, width) stack, got shape {counts.shape}")
    return np.rint(counts.mean(axis=0)).astype(np.int64)


def integrate_roi(counts: np.ndarray, roi: Roi) -> int:
    """Exact sum of the (height, width) pixel counts inside the ROI."""
    height, width = counts.shape
    if roi.x + roi.width > width or roi.y + roi.height > height:
        raise ValueError(f"roi {roi} does not fit in a {width}x{height} frame")
    region = counts[roi.y : roi.y + roi.height, roi.x : roi.x + roi.width]
    return int(region.sum())


@dataclass(frozen=True)
class BeamConfig:
    """Write beam at the sample: power, waist, profile, and write threshold."""

    average_power_w: float
    repetition_rate_hz: float = 1000.0
    waist_diameter_um: float = 100.0
    profile: str = "flattop"
    flattop_order: int = 5
    threshold_fluence_j_cm2: float = 0.05

    def __post_init__(self):
        if self.average_power_w < 0:
            raise ConfigurationError("average_power_w must be >= 0")
        if self.repetition_rate_hz <= 0:
            raise ConfigurationError("repetition_rate_hz must be > 0")
        if self.waist_diameter_um <= 0:
            raise ConfigurationError("waist_diameter_um must be > 0")
        if self.profile not in ("flattop", "gaussian"):
            raise ConfigurationError("profile must be 'flattop' or 'gaussian'")
        if self.flattop_order < 1:
            raise ConfigurationError("flattop_order must be >= 1")
        if self.threshold_fluence_j_cm2 <= 0:
            raise ConfigurationError("threshold_fluence_j_cm2 must be > 0")

    @property
    def pulse_energy_j(self) -> float:
        return self.average_power_w / self.repetition_rate_hz

    @property
    def order(self) -> int:
        """Super-Gaussian order: 1 for gaussian, flattop_order otherwise."""
        return 1 if self.profile == "gaussian" else self.flattop_order


UM2_PER_CM2 = 1.0e8


def peak_fluence_j_cm2(beam: BeamConfig) -> float:
    """Peak fluence of a super-Gaussian exp(-2 (r/w)^(2n)) with the beam's
    pulse energy, where w is the waist radius."""
    n = beam.order
    w_um = beam.waist_diameter_um / 2.0
    area_um2 = math.pi * w_um * w_um * 2.0 ** (-1.0 / n) * math.gamma(1.0 / n) / n
    return beam.pulse_energy_j / area_um2 * UM2_PER_CM2


def write_spot_geometry(
    beam: BeamConfig, center_x_um: float = 0.0, center_y_um: float = 0.0
) -> SpotGeometry:
    """Diameter of the region where fluence reaches the write threshold.

    Zero when the peak fluence never reaches the threshold; otherwise the
    super-Gaussian threshold radius, which grows with power (slowly for
    flat-top orders, by the standard radius formula for gaussian order 1).
    """
    f_peak = peak_fluence_j_cm2(beam)
    if f_peak <= beam.threshold_fluence_j_cm2:
        diameter = 0.0
    else:
        n = beam.order
        w_um = beam.waist_diameter_um / 2.0
        ratio = math.log(f_peak / beam.threshold_fluence_j_cm2) / 2.0
        diameter = 2.0 * w_um * ratio ** (1.0 / (2.0 * n))
    return SpotGeometry(center_x_um, center_y_um, diameter, beam.profile)


def write_pgm(frame: Frame, path) -> None:
    """Export as 16-bit binary PGM (P5) with a JSON metadata sidecar.

    Both files are written atomically.
    """
    path = Path(path)
    maxval = 65535
    scaled = np.clip(frame.counts, 0, maxval).astype(">u2")
    header = f"P5\n{frame.width} {frame.height}\n{maxval}\n".encode("ascii")
    atomic_write(path, header + scaled.tobytes())
    meta = {
        "exposure_s": frame.exposure_s,
        "pixel_area_um2": frame.pixel_area,
        "bit_depth": frame.bit_depth,
        "clipped": frame.clipped,
        "width": frame.width,
        "height": frame.height,
    }
    atomic_write(
        path.with_suffix(path.suffix + ".json"),
        json.dumps(meta, sort_keys=True, indent=2) + "\n",
    )
