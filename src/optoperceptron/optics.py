"""Faraday-rotation readout chain.

Magnetization maps to a rotation angle, the crossed analyzer turns that into
an intensity I_out = I_in * c * (1 - m) with c = delta^2 / 2, and a strictly
linear camera (additive dark offset, optional Gaussian read noise) converts
intensity into pixel counts. The readout kernel has the camera's two
stages: expose_frames adds one (site, mask) scene's noiseless counts to its
stack of frames in a read-noise block, and digitize_frames, the ADC, rounds
and clips the whole block of a read operation at once. One draw may cover
the blocks of several reads, whose geometry the caller owns. The rest is
frame averaging and integration of the readout window (the ROI), which
reduce the trailing axes and so serve one read or several at once.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .synapse import SynapseSite


class OpticalConstants(NamedTuple):
    """Probe-side constants of the readout chain."""

    delta_rad: float
    intensity_in: float

    @property
    def c(self) -> float:
        """Analyzer leakage constant, exactly delta^2 / 2."""
        return self.delta_rad * self.delta_rad / 2.0


def analyzer_intensity(m: float, constants: OpticalConstants) -> float:
    """Probe intensity behind the crossed analyzer: I_in * c * (1 - m).

    Maximum at m = 0 (bright background), zero at m = 1 (fully written spot).
    """
    return constants.intensity_in * constants.c * (1.0 - m)


class CameraConfig(NamedTuple):
    """Linear monochrome camera: counts = gain * E + dark_offset (+ noise)."""

    width: int
    height: int
    pixel_scale_um: float
    exposure_s: float
    gain: float
    dark_offset: float
    read_noise: float
    bit_depth: int

    @property
    def pixel_area(self) -> float:
        """Area of one pixel at the sample plane, um^2."""
        return self.pixel_scale_um * self.pixel_scale_um

    @property
    def full_well(self) -> int:
        return (1 << self.bit_depth) - 1

    def window(self, width_um: float, height_um: float) -> CameraConfig:
        """This camera cropped to a sample-plane window, each side rounded to whole pixels, at least one."""
        width, height = (max(1, int(um / self.pixel_scale_um + 0.5)) for um in (width_um, height_um))
        return self._replace(width=width, height=height)

    def in_field(self, x_um: float, y_um: float) -> bool:
        """Whether a sample-plane point lies on the sensor."""
        return (
            0.0 <= x_um <= self.width * self.pixel_scale_um
            and 0.0 <= y_um <= self.height * self.pixel_scale_um
        )


def spot_pixel_mask(
    x_um: float, y_um: float, diameter_um: float, camera: CameraConfig
) -> np.ndarray:
    """Boolean (height, width) mask of the pixels whose centers fall in the
    disk of the given diameter centered at (x_um, y_um) on the sample.

    The squared center offsets are two vectors, one per axis, broadcast into
    one float64 plane of their sums, so the call holds that plane and the
    boolean result. Each sum is the same float64 expression, in the same
    order, as over full coordinate grids."""
    scale = camera.pixel_scale_um
    dx2 = ((np.arange(camera.width) + 0.5) * scale - x_um) ** 2
    dy2 = ((np.arange(camera.height) + 0.5) * scale - y_um) ** 2
    r = diameter_um / 2.0
    return dx2[np.newaxis, :] + dy2[:, np.newaxis] <= r * r


def draw_read_noise(rng: np.random.Generator, camera: CameraConfig, *leading: int) -> np.ndarray:
    """Gaussian read noise for (*leading, height, width) pixels from one draw.

    The draw fills values in order, so one block equals the blocks of its
    leading slices drawn one after another, and leaves the rng in the same
    state. Scaling standard normal values by sigma gives, value for value,
    what rng.normal(0, sigma) gives (it computes 0 + sigma * z), with a
    faster fill. A noiseless camera draws nothing and gets zeros.
    """
    shape = (*leading, camera.height, camera.width)
    if camera.read_noise == 0:
        return np.zeros(shape)
    noise = rng.standard_normal(shape)
    noise *= camera.read_noise
    return noise


def expose_frames(
    n_frames: int,
    scene: Sequence[tuple[SynapseSite, np.ndarray]],
    constants: OpticalConstants,
    camera: CameraConfig,
    noise: np.ndarray,
) -> None:
    """The exposure: n noise-independent frames of one scene, before the ADC.

    The scene lists (site, mask) pairs, each mask the spot_pixel_mask of the
    site's written spot. Pixels under a mask carry that site's intensity
    (uniform over the disk, scaled by the site's background_gain to model
    illumination inhomogeneity at that sample area), a later pair painting
    over an earlier one; all other pixels carry the background state.
    n_frames is rig.frames_per_read (at least 1) or 1 for a full frame. noise
    is the (n_frames, height, width) read-noise block of this exposure, from
    draw_read_noise (zeros for a noiseless camera); the scene's noiseless
    counts are added to it in place, and a block of any other shape is
    refused, which is what ties it to n_frames. digitize_frames then turns
    the exposed blocks of one read operation into counts.
    """
    shape = (n_frames, camera.height, camera.width)
    if noise.shape != shape:
        raise ValueError(f"noise block of shape {noise.shape} does not fit {shape}")
    base = np.empty(shape[1:])  # empty + fill: half the call cost of np.full
    base.fill(_noiseless_counts(analyzer_intensity(0.0, constants), camera))
    for site, mask in scene:
        base[mask] = _noiseless_counts(
            site.params.background_gain
            * analyzer_intensity(site.written_fraction, constants),
            camera,
        )
    noise += base


def digitize_frames(block: np.ndarray, camera: CameraConfig) -> list[bool]:
    """The ADC: the exposed (reads, frames, height, width) block of one read
    operation rounded to integer counts and clipped to [0, full_well], in
    place, and per read whether any of its pixels clipped at the full well.

    Rounding and clipping act pixel by pixel, so digitizing several reads at
    once equals digitizing each alone, up to the sign of a zero, which no
    integer cast sees. The clip pass runs only when some read clipped high
    or the block's minimum is below 0; otherwise the block is already in
    range. Nothing the size of the block is allocated.
    """
    np.rint(block, out=block)
    full_well = camera.full_well
    clipped = [peak > full_well for peak in block.max(axis=(-3, -2, -1)).tolist()]
    if True in clipped or block.min(initial=0.0) < 0:  # initial: a read of no sites
        np.clip(block, 0, full_well, out=block)
    return clipped


def _noiseless_counts(intensity: float, camera: CameraConfig) -> float:
    """Mean counts of a pixel at the given probe intensity, before rounding."""
    return camera.gain * intensity * camera.exposure_s / camera.pixel_area + camera.dark_offset


def average_frames(counts: np.ndarray) -> np.ndarray:
    """Per-pixel mean over the frame axis of a (..., frames, height, width)
    stack, rounded to counts.

    The float64 sums of at most 1000 frames of counts below 2**32 are exact,
    so the mean does not depend on the summation order, and averaging a
    stack of several reads at once equals averaging each alone. Integer
    stacks are accepted too.
    """
    mean = counts.sum(axis=-3, dtype=np.float64)
    mean /= counts.shape[-3]
    np.rint(mean, out=mean)
    return mean.astype(np.int64)


def integrate_roi(counts: np.ndarray) -> int | list:
    """Exact sum of the pixel counts of each trailing (height, width) frame,
    which is the whole readout window: an int for one frame, a list of ints
    for a stack of frames."""
    return counts.sum(axis=(-2, -1)).tolist()


def pgm_image(counts: np.ndarray, clipped: bool, camera: CameraConfig) -> tuple[bytes, dict]:
    """One (height, width) frame as 16-bit binary PGM (P5) bytes and its JSON
    metadata sidecar.

    counts and clipped are one digitized frame and its flag; exposure,
    pixel area and bit depth come from the camera it was rendered with, width
    and height from counts.shape. The sidecar's "clipped" flag is set when the
    sensor clipped or a count above 65535 was cut to fit.
    """
    maxval = 65535
    height, width = counts.shape
    scaled = np.clip(counts, 0, maxval).astype(">u2")
    clipped = clipped or bool((counts > maxval).any())
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    meta = {
        "exposure_s": camera.exposure_s,
        "pixel_area_um2": camera.pixel_area,
        "bit_depth": camera.bit_depth,
        "clipped": clipped,
        "width": width,
        "height": height,
    }
    return header + scaled.tobytes(), meta
