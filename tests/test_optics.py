import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.config import SMALL_ANGLE_LIMIT, load_config
from optoperceptron.errors import ConfigurationError
from optoperceptron.optics import (
    analyzer_intensity,
    average_frames,
    digitize_frames,
    draw_read_noise,
    expose_frames,
    integrate_roi,
    pgm_image,
    spot_pixel_mask,
)
from optoperceptron.runner import build_rig, make_streams
from optoperceptron.synapse import SynapseSite
from typed_configs import camera_config, optical_constants, render_frames, site_params, zero_noise

CONSTANTS = optical_constants()  # delta 0.1, I_in 4e6
SENSOR = camera_config()  # the default 166 x 128 px sensor at 1 um per pixel
NOMINAL_SITE = site_params()


def site_at(m, gain=1.0):
    return SynapseSite(m, 0, NOMINAL_SITE._replace(background_gain=gain))


def window_camera(**keys):
    """A noiseless 20 x 18 px window of the default camera, with the given
    camera.* keys set."""
    return camera_config(width_px=20, height_px=18, **{"read_noise": 0.0, **keys})


def centered_mask(camera, diameter=10.0):
    """Pixel mask of a spot centered on the window (1 um pixels)."""
    return spot_pixel_mask(camera.width / 2.0, camera.height / 2.0, diameter, camera)


def render(sites, camera):
    """One frame of the scene through the kernel, with a zero noise block."""
    return render_frames(1, sites, CONSTANTS, camera, zero_noise(camera))


# -- analyzer -----------------------------------------------------------------

def test_analyzer_maximum_at_background():
    assert analyzer_intensity(0.0, CONSTANTS) == CONSTANTS.intensity_in * CONSTANTS.c


def test_analyzer_dark_at_saturation():
    assert analyzer_intensity(1.0, CONSTANTS) == 0.0


@given(st.floats(0.0, 1.0))
def test_analyzer_matches_closed_form(m):
    assert analyzer_intensity(m, CONSTANTS) == CONSTANTS.intensity_in * CONSTANTS.c * (1.0 - m)


def test_analyzer_affine_three_point_collinear():
    y0 = analyzer_intensity(0.0, CONSTANTS)
    y1 = analyzer_intensity(0.5, CONSTANTS)
    y2 = analyzer_intensity(1.0, CONSTANTS)
    assert y1 == pytest.approx((y0 + y2) / 2.0)
    assert y2 - y0 == pytest.approx(-CONSTANTS.intensity_in * CONSTANTS.c)


def test_leakage_constant_exact():
    c = optical_constants(delta_rad=0.08)
    assert c.c == 0.08 * 0.08 / 2.0


def test_constants_small_angle_enforced():
    # optics.delta_rad is bounded by the limit of the small-angle chain
    assert optical_constants(delta_rad=SMALL_ANGLE_LIMIT).delta_rad == SMALL_ANGLE_LIMIT
    with pytest.raises(ConfigurationError, match="optics.delta_rad: 0.5 is above the maximum 0.2"):
        optical_constants(delta_rad=0.5)


# -- field of view ------------------------------------------------------------

def test_in_field_holds_both_ends_of_each_axis():
    camera = window_camera(pixel_scale_um=1.5)
    far_x, far_y = camera.width * 1.5, camera.height * 1.5
    assert camera.in_field(0.0, 0.0)
    assert camera.in_field(far_x, far_y)
    below = math.nextafter(0.0, -1.0)
    past_x, past_y = math.nextafter(far_x, math.inf), math.nextafter(far_y, math.inf)
    for x, y in ((below, 0.0), (0.0, below), (past_x, far_y), (far_x, past_y)):
        assert not camera.in_field(x, y), (x, y)


# -- spot masks ---------------------------------------------------------------

def grid_mask(x_um, y_um, diameter_um, camera):
    """The reference mask, over full np.mgrid planes of pixel coordinates."""
    scale = camera.pixel_scale_um
    ys, xs = np.mgrid[0 : camera.height, 0 : camera.width]
    px = (xs + 0.5) * scale
    py = (ys + 0.5) * scale
    r = diameter_um / 2.0
    return (px - x_um) ** 2 + (py - y_um) ** 2 <= r * r


# Each mask a default rig builds, as (x_um, y_um, diameter_um, width, height,
# pixel_scale_um): its 17 x 16 px readout window, then the ten sites of the
# 166 x 128 px full frame.
DEFAULT_SITE_CENTERS = [
    (16.5, 15.5), (57.3, 15.5), (98.1, 15.5),
    (16.5, 56.3), (57.3, 56.3), (98.1, 56.3),
    (16.5, 97.1), (57.3, 97.1), (98.1, 97.1),
    (141.3, 64.0),
]
DEFAULT_MASKS = [(8.5, 8.0, 10.0, 17, 16, 1.0)] + [(x, y, 10.0, 166, 128, 1.0) for x, y in DEFAULT_SITE_CENTERS]


def test_default_mask_examples_are_the_masks_a_default_rig_builds():
    rig = build_rig(load_config(), make_streams(7))
    window, sensor, diameter = rig.window_camera, rig.sensor_camera, rig.config.spot_diameter_um
    scale = sensor.pixel_scale_um
    assert DEFAULT_MASKS == [
        (window.width * scale / 2.0, window.height * scale / 2.0, diameter, window.width, window.height, scale),
        *((*rig.site_position_um(i), diameter, sensor.width, sensor.height, scale) for i in range(10)),
    ]


@st.composite
def mask_geometries(draw):
    """A sensor of 1 to 300 px a side at 0.05 to 4 um per pixel, and a spot
    centered on a pixel center, on a pixel edge or anywhere, off the sensor
    too, of diameter 0, below one pixel or up to past the whole sensor."""
    width, height = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    scale = draw(st.sampled_from([0.1, 0.37, 0.5, 1.0, 3.0]) | st.floats(0.05, 4.0))

    def coordinate(n_px):
        i = draw(st.integers(-3, n_px + 3))
        return draw(st.sampled_from([(i + 0.5) * scale, i * scale]) | st.floats(-20.0, n_px * scale + 20.0))

    x_um, y_um = coordinate(width), coordinate(height)
    diameter = draw(st.just(0.0) | st.floats(0.0, scale) | st.floats(0.0, 3.0 * max(width, height) * scale))
    return x_um, y_um, diameter, width, height, scale


def default_mask_examples(test):
    """One @example per mask of DEFAULT_MASKS."""
    for geometry in DEFAULT_MASKS:
        test = example(geometry)(test)
    return test


@default_mask_examples
@given(mask_geometries())
def test_spot_mask_equals_the_coordinate_grid_mask(geometry):
    x_um, y_um, diameter, width, height, scale = geometry
    camera = SENSOR._replace(width=width, height=height, pixel_scale_um=scale)
    mask = spot_pixel_mask(x_um, y_um, diameter, camera)
    assert mask.dtype == bool
    assert np.array_equal(mask, grid_mask(x_um, y_um, diameter, camera))


# -- frame rendering ----------------------------------------------------------

def test_fully_written_spot_reads_dark_level():
    camera = window_camera()
    mask = centered_mask(camera)
    counts, _ = render([(site_at(1.0), mask)], camera)
    assert np.all(counts[0][mask] == 600)


def test_zero_exposure_reads_dark_everywhere():
    camera = window_camera()._replace(exposure_s=0.0)  # no key admits a zero exposure
    counts, _ = render([(site_at(0.3), centered_mask(camera))], camera)
    assert np.all(counts == 600)


def test_in_spot_contrast_closed_form():
    camera = window_camera()
    mask = centered_mask(camera)
    bright, _ = render([(site_at(0.0), mask)], camera)
    dark, _ = render([(site_at(1.0), mask)], camera)
    expected = camera.gain * CONSTANTS.intensity_in * CONSTANTS.c * camera.exposure_s / camera.pixel_area
    deltas = bright[0][mask] - dark[0][mask]
    assert np.all(deltas == round(expected))


def test_noiseless_render_deterministic():
    camera = window_camera()
    mask = centered_mask(camera)
    a, _ = render([(site_at(0.4), mask)], camera)
    b, _ = render([(site_at(0.4), mask)], camera)
    assert np.array_equal(a, b)


def test_render_linear_in_exposure_until_clipping():
    base = window_camera(dark_offset=0.0)
    doubled = window_camera(dark_offset=0.0, exposure_ms=20.0)
    mask = centered_mask(base)
    c1, clipped1 = render([(site_at(0.5), mask)], base)
    c2, clipped2 = render([(site_at(0.5), mask)], doubled)
    assert not clipped1 and not clipped2
    assert np.array_equal(c2, 2 * c1)


def test_monotone_in_written_fraction():
    camera = window_camera()
    mask = centered_mask(camera)
    previous, _ = render([(site_at(0.0), mask)], camera)
    for m in (0.2, 0.5, 0.8, 1.0):
        current, _ = render([(site_at(m), mask)], camera)
        assert np.all(current <= previous)
        previous = current


def test_background_gain_scales_spot_region():
    camera = window_camera(dark_offset=0.0)
    mask = centered_mask(camera)
    plain, _ = render([(site_at(0.0, gain=1.0), mask)], camera)
    boosted, _ = render([(site_at(0.0, gain=1.1), mask)], camera)
    assert np.all(boosted[0][mask] > plain[0][mask])
    assert np.array_equal(boosted[0][~mask], plain[0][~mask])


def test_clipping_sets_flag_not_error():
    # full well 255 << bright level; the 600-count dark level is above it,
    # which no config admits
    camera = window_camera()._replace(bit_depth=8)
    counts, clipped = render([(site_at(0.0), centered_mask(camera))], camera)
    assert clipped
    assert counts.max() == camera.full_well


def test_noise_block_must_fit_the_frames():
    camera = window_camera(read_noise=5.0)
    wrong_frames = draw_read_noise(np.random.default_rng(0), camera, 2)
    with pytest.raises(ValueError, match="does not fit"):
        expose_frames(1, [(site_at(0.0), centered_mask(camera))], CONSTANTS, camera, wrong_frames)


def test_batched_frames_are_noise_independent():
    camera = window_camera(read_noise=10.0)
    rng = np.random.default_rng(5)
    noise = draw_read_noise(rng, camera, 3)
    counts, _ = render_frames(3, [(site_at(0.0), centered_mask(camera))], CONSTANTS, camera, noise)
    assert counts.shape == (3, camera.height, camera.width)
    assert not np.array_equal(counts[0], counts[1])
    assert not np.array_equal(counts[1], counts[2])


# -- averaging and ROI --------------------------------------------------------

def test_average_single_frame_identity():
    camera = window_camera()
    counts, _ = render([(site_at(0.3), centered_mask(camera))], camera)
    assert np.array_equal(average_frames(counts), counts[0])


def test_average_two_frames():
    stack = np.empty((2, 18, 20))
    stack[0] = 100
    stack[1] = 200
    assert np.all(average_frames(stack) == 150)


def test_ten_frame_average_reduces_noise():
    sigma = 8.0
    camera = camera_config(width_px=128, height_px=128, read_noise=sigma, dark_offset=5000.0, gain=100.0)
    rng = np.random.default_rng(11)
    counts, clipped = render_frames(10, [], CONSTANTS, camera, draw_read_noise(rng, camera, 10))  # 25000 counts
    assert not clipped
    residual = average_frames(counts).astype(float).std()
    expected = sigma / math.sqrt(10)
    assert abs(residual - expected) / expected < 0.20  # 128*128 > 1e4 pixels


@pytest.mark.parametrize(
    "camera",
    [
        window_camera(read_noise=40.0),
        # bright level 230 +- 40 against a full well of 255, dark spot 30 +- 40
        window_camera(read_noise=40.0, dark_offset=30.0, bit_depth=8, exposure_ms=0.1),
    ],
)
def test_kernel_matches_per_frame_reference(camera):
    mask = centered_mask(camera)
    counts, clipped = render_frames(
        10, [(site_at(1.0), mask)], CONSTANTS, camera,
        draw_read_noise(np.random.default_rng(3), camera, 10),
    )
    # The per-frame loop the kernel replaced, on the same noise draw.
    intensity = np.where(mask, 0.0, analyzer_intensity(0.0, CONSTANTS))
    base = camera.gain * intensity * camera.exposure_s / camera.pixel_area + camera.dark_offset
    noise = np.random.default_rng(3).normal(0.0, camera.read_noise, size=counts.shape)
    raws = [np.rint(base + noise[i]) for i in range(10)]
    frames = [np.clip(raw, 0, camera.full_well).astype(np.int64) for raw in raws]
    assert clipped == any(bool(np.any(raw > camera.full_well)) for raw in raws)
    assert np.array_equal(counts, frames)
    assert np.array_equal(
        average_frames(counts), np.rint(np.mean(frames, axis=0)).astype(np.int64)
    )
    if camera.bit_depth == 8:
        assert clipped and (counts == 0).any()


def reference_expose_frames(n_frames, spots, constants, camera, rng):
    """The kernel before its scalar base image and conditional clip: an
    intensity image, four full-array passes to counts, an unconditional clip.
    Each spot is a (site, (x_um, y_um, diameter_um)) pair, masked here."""
    intensity = np.full(
        (camera.height, camera.width), analyzer_intensity(0.0, constants), dtype=np.float64
    )
    for site, disk in spots:
        intensity[spot_pixel_mask(*disk, camera)] = (
            site.params.background_gain * analyzer_intensity(site.written_fraction, constants)
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


def reference_average_frames(counts):
    return np.rint(counts.mean(axis=0)).astype(np.int64)


KERNEL_CASE = dict(
    n_frames=10, fractions=[1.0, 0.4], gains=[1.0, 1.1], camera_gain=100.0,
    dark=600.0, bit_depth=16, noise=50.0,
)


@example(**KERNEL_CASE)
@example(**{**KERNEL_CASE, "dark": 0.0})  # saturated spots clip at 0 counts
@example(**{**KERNEL_CASE, "bit_depth": 8, "dark": 30.0, "camera_gain": 1.0})
@example(**{**KERNEL_CASE, "noise": 0.0})
@given(
    n_frames=st.integers(1, 12),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=2),
    gains=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
    camera_gain=st.floats(0.5, 300.0),
    dark=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    bit_depth=st.sampled_from([8, 12, 16]),
    noise=st.one_of(st.just(0.0), st.floats(0.1, 200.0)),
)
def test_kernel_matches_reference_byte_for_byte(
    n_frames, fractions, gains, camera_gain, dark, bit_depth, noise
):
    # a dark level at or above the full well is no config's, but the kernel
    # must still render it
    camera = window_camera(read_noise=noise, gain=camera_gain)._replace(dark_offset=dark, bit_depth=bit_depth)
    disks = [(6.0, 9.0, 8.0), (13.0, 9.0, 8.0)]  # overlapping
    spots = [(site_at(m, g), disk) for m, g, disk in zip(fractions, gains, disks)]
    scene = [(site, spot_pixel_mask(*disk, camera)) for site, disk in spots]
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    noise = draw_read_noise(rng, camera, n_frames)
    counts, clipped = render_frames(n_frames, scene, CONSTANTS, camera, noise)
    ref_counts, ref_clipped = reference_expose_frames(n_frames, spots, CONSTANTS, camera, ref_rng)
    assert counts.dtype == ref_counts.dtype and counts.shape == ref_counts.shape
    assert counts.tobytes() == ref_counts.tobytes()
    assert clipped == ref_clipped
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for stack in (counts, counts.astype(np.int64), counts.astype(np.uint16)):
        mean = average_frames(stack)
        ref_mean = reference_average_frames(stack)
        assert mean.dtype == ref_mean.dtype and mean.tobytes() == ref_mean.tobytes()
    total = integrate_roi(mean)
    assert type(total) is int and total == int(mean.sum())


def exposed_read(kind, n_frames, camera, rng):
    """An exposed (n_frames, height, width) stack of one read, before the ADC:
    counts in [0, full_well] with fractions, and for a "high" read one pixel
    above the full well, for a "negative" one a pixel below -0.5, and for a
    "zero" one pixels at -0.0 and at -0.3, which rounds to -0.0."""
    full_well = camera.full_well
    stack = rng.uniform(0.0, full_well, (n_frames, camera.height, camera.width))
    pixel = (rng.integers(n_frames), rng.integers(camera.height), rng.integers(camera.width))
    if kind == "high":
        stack[pixel] = full_well + rng.uniform(0.6, 100.0)
    elif kind == "negative":
        stack[pixel] = -rng.uniform(0.6, 100.0)
    elif kind == "zero":
        stack[0, 0, :2] = (-0.0, -0.3)
    return stack


READ_KINDS = ("in-range", "high", "negative", "zero")


@example(kinds=["in-range", "high", "in-range", "negative", "zero"], n_frames=3, bit_depth=8, seed=0)
@example(kinds=["zero", "in-range"], n_frames=1, bit_depth=12, seed=1)
@given(
    kinds=st.lists(st.sampled_from(READ_KINDS), min_size=1, max_size=6),
    n_frames=st.integers(1, 4),
    bit_depth=st.sampled_from([8, 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_digitizing_a_read_operation_equals_digitizing_each_read_alone(kinds, n_frames, bit_depth, seed):
    camera = window_camera()._replace(width=6, height=5, bit_depth=bit_depth)
    rng = np.random.default_rng(seed)
    block = np.stack([exposed_read(kind, n_frames, camera, rng) for kind in kinds])
    exposed = block.copy()
    flags = digitize_frames(block, camera)
    means = average_frames(block)
    assert len(flags) == len(kinds)
    for read, flag, mean, total in zip(exposed, flags, means, integrate_roi(means)):
        alone = read[np.newaxis].copy()
        assert digitize_frames(alone, camera) == [flag]
        rounded = np.rint(read)
        assert flag == bool((rounded > camera.full_well).any())
        assert np.array_equal(alone[0], np.clip(rounded, 0, camera.full_well))
        alone_mean = average_frames(alone)[0]
        assert mean.dtype == alone_mean.dtype == np.int64
        assert mean.tobytes() == alone_mean.tobytes()
        assert total == integrate_roi(alone_mean)


def test_integrate_ramp_closed_form():
    camera = window_camera()
    counts, _ = render([], camera)
    frame = counts[0]
    frame[:] = np.arange(camera.width)[None, :]
    # sum over a full-width row span: height * sum(0..width-1)
    total = integrate_roi(frame)
    assert total == camera.height * (camera.width - 1) * camera.width // 2


def test_integrate_whole_frame_equals_sum():
    camera = window_camera()
    counts, _ = render([(site_at(0.5), centered_mask(camera))], camera)
    assert integrate_roi(counts[0]) == counts.sum()


# -- export -------------------------------------------------------------------

def test_pgm_roundtrip():
    camera = window_camera()
    counts, clipped = render([(site_at(0.6), centered_mask(camera))], camera)
    blob, meta = pgm_image(counts[0], clipped, camera)
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == f"{camera.width} {camera.height}".encode()
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"65535"
    data = np.frombuffer(pixels, dtype=">u2").reshape(camera.height, camera.width)
    assert np.array_equal(data, counts[0])
    assert meta["exposure_s"] == camera.exposure_s


def test_pgm_image_bytes_and_sidecar():
    camera = window_camera()
    counts, clipped = render([(site_at(0.6), centered_mask(camera))], camera)
    blob, meta = pgm_image(counts[0], clipped, camera)
    header = f"P5\n{camera.width} {camera.height}\n65535\n".encode()
    assert blob == header + counts[0].astype(">u2").tobytes()
    assert meta == {
        "bit_depth": 16, "clipped": False, "exposure_s": 0.01,
        "height": camera.height, "pixel_area_um2": 1.0, "width": camera.width,
    }


def test_pgm_sidecar_flags_counts_clipped_to_16_bits():
    # 17 bits: the 66600-count background fits the sensor but not the PGM
    camera = window_camera(gain=330.0, bit_depth=17)
    counts, clipped = render([(site_at(0.6), centered_mask(camera))], camera)
    assert not clipped
    assert counts.max() > 65535
    blob, meta = pgm_image(counts[0], clipped, camera)
    pixels = np.frombuffer(blob[-2 * counts.size:], dtype=">u2")
    assert np.array_equal(pixels, np.minimum(counts, 65535).ravel())
    assert meta["clipped"] is True
