import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.errors import ConfigurationError
from optoperceptron.optics import (
    CameraConfig,
    OpticalConstants,
    Roi,
    SpotGeometry,
    analyzer_intensity,
    average_frames,
    expose_frames,
    integrate_roi,
    spot_pixel_mask,
    write_pgm,
)
from optoperceptron.synapse import InhomogeneityParams, SynapseSite

CONSTANTS = OpticalConstants()  # delta 0.1, I_in 4e6


def site_at(m, gain=1.0):
    return SynapseSite(m, 0, InhomogeneityParams(background_gain=gain))


def window_camera(noise=0.0, dark=600.0, gain=100.0, bit_depth=16, exposure=0.010):
    return CameraConfig(
        width=20, height=18, pixel_scale_um=1.0, exposure_s=exposure,
        gain=gain, dark_offset=dark, read_noise=noise, bit_depth=bit_depth,
    )


def centered_spot(camera, diameter=10.0):
    return SpotGeometry(camera.width / 2.0, camera.height / 2.0, diameter)


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
    c = OpticalConstants(delta=0.08)
    assert c.c == 0.08 * 0.08 / 2.0


def test_constants_small_angle_enforced():
    with pytest.raises(ConfigurationError):
        OpticalConstants(delta=0.5)


# -- frame rendering ----------------------------------------------------------

def test_fully_written_spot_reads_dark_level():
    camera = window_camera()
    spot = centered_spot(camera)
    counts, _ = expose_frames(1, [(site_at(1.0), spot)], CONSTANTS, camera)
    mask = spot_pixel_mask(spot, camera)
    assert np.all(counts[0][mask] == 600)


def test_zero_exposure_reads_dark_everywhere():
    camera = window_camera(exposure=0.0)
    counts, _ = expose_frames(1, [(site_at(0.3), centered_spot(camera))], CONSTANTS, camera)
    assert np.all(counts == 600)


def test_in_spot_contrast_closed_form():
    camera = window_camera()
    spot = centered_spot(camera)
    mask = spot_pixel_mask(spot, camera)
    bright, _ = expose_frames(1, [(site_at(0.0), spot)], CONSTANTS, camera)
    dark, _ = expose_frames(1, [(site_at(1.0), spot)], CONSTANTS, camera)
    expected = camera.gain * CONSTANTS.intensity_in * CONSTANTS.c * camera.exposure_s / camera.pixel_area
    deltas = bright[0][mask] - dark[0][mask]
    assert np.all(deltas == round(expected))


def test_noiseless_render_deterministic():
    camera = window_camera()
    spot = centered_spot(camera)
    a, _ = expose_frames(1, [(site_at(0.4), spot)], CONSTANTS, camera)
    b, _ = expose_frames(1, [(site_at(0.4), spot)], CONSTANTS, camera)
    assert np.array_equal(a, b)


def test_render_linear_in_exposure_until_clipping():
    base = window_camera(dark=0.0)
    doubled = window_camera(dark=0.0, exposure=0.020)
    spot = centered_spot(base)
    c1, clipped1 = expose_frames(1, [(site_at(0.5), spot)], CONSTANTS, base)
    c2, clipped2 = expose_frames(1, [(site_at(0.5), spot)], CONSTANTS, doubled)
    assert not clipped1 and not clipped2
    assert np.array_equal(c2, 2 * c1)


def test_monotone_in_written_fraction():
    camera = window_camera()
    spot = centered_spot(camera)
    previous, _ = expose_frames(1, [(site_at(0.0), spot)], CONSTANTS, camera)
    for m in (0.2, 0.5, 0.8, 1.0):
        current, _ = expose_frames(1, [(site_at(m), spot)], CONSTANTS, camera)
        assert np.all(current <= previous)
        previous = current


def test_background_gain_scales_spot_region():
    camera = window_camera(dark=0.0)
    spot = centered_spot(camera)
    mask = spot_pixel_mask(spot, camera)
    plain, _ = expose_frames(1, [(site_at(0.0, gain=1.0), spot)], CONSTANTS, camera)
    boosted, _ = expose_frames(1, [(site_at(0.0, gain=1.1), spot)], CONSTANTS, camera)
    assert np.all(boosted[0][mask] > plain[0][mask])
    assert np.array_equal(boosted[0][~mask], plain[0][~mask])


def test_clipping_sets_flag_not_error():
    camera = window_camera(bit_depth=8)  # full well 255 << bright level
    counts, clipped = expose_frames(1, [(site_at(0.0), centered_spot(camera))], CONSTANTS, camera)
    assert clipped
    assert counts.max() == camera.full_well


def test_noise_requires_rng():
    camera = window_camera(noise=5.0)
    with pytest.raises(ValueError):
        expose_frames(1, [(site_at(0.0), centered_spot(camera))], CONSTANTS, camera)


def test_spot_outside_fov_rejected():
    camera = window_camera()
    with pytest.raises(ValueError):
        expose_frames(1, [(site_at(0.0), SpotGeometry(500.0, 5.0, 10.0))], CONSTANTS, camera)


def test_batched_frames_are_noise_independent():
    camera = window_camera(noise=10.0)
    rng = np.random.default_rng(5)
    counts, _ = expose_frames(3, [(site_at(0.0), centered_spot(camera))], CONSTANTS, camera, rng)
    assert counts.shape == (3, camera.height, camera.width)
    assert not np.array_equal(counts[0], counts[1])
    assert not np.array_equal(counts[1], counts[2])


# -- averaging and ROI --------------------------------------------------------

def test_average_single_frame_identity():
    camera = window_camera()
    counts, _ = expose_frames(1, [(site_at(0.3), centered_spot(camera))], CONSTANTS, camera)
    assert np.array_equal(average_frames(counts), counts[0])


def test_average_two_frames():
    stack = np.empty((2, 18, 20))
    stack[0] = 100
    stack[1] = 200
    assert np.all(average_frames(stack) == 150)


def test_average_rejects_mismatched_dimensions():
    counts, _ = expose_frames(1, [], CONSTANTS, window_camera())
    with pytest.raises(ValueError):
        average_frames(counts[0])  # one frame, not a (frames, h, w) stack


def test_ten_frame_average_reduces_noise():
    sigma = 8.0
    camera = CameraConfig(width=128, height=128, read_noise=sigma, dark_offset=5000.0, gain=100.0)
    rng = np.random.default_rng(11)
    counts, clipped = expose_frames(10, [], CONSTANTS, camera, rng)  # 25000 counts
    assert not clipped
    residual = average_frames(counts).astype(float).std()
    expected = sigma / math.sqrt(10)
    assert abs(residual - expected) / expected < 0.20  # 128*128 > 1e4 pixels


@pytest.mark.parametrize(
    "camera",
    [
        window_camera(noise=40.0),
        # bright level 230 +- 40 against a full well of 255, dark spot 30 +- 40
        window_camera(noise=40.0, dark=30.0, bit_depth=8, exposure=0.0001),
    ],
)
def test_kernel_matches_per_frame_reference(camera):
    spot = centered_spot(camera)
    counts, clipped = expose_frames(
        10, [(site_at(1.0), spot)], CONSTANTS, camera, np.random.default_rng(3)
    )
    # The per-frame loop the kernel replaced, on the same noise draw.
    mask = spot_pixel_mask(spot, camera)
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


def reference_expose_frames(n_frames, sites, constants, camera, rng):
    """The kernel before its scalar base image and conditional clip: an
    intensity image, four full-array passes to counts, an unconditional clip."""
    intensity = np.full(
        (camera.height, camera.width), analyzer_intensity(0.0, constants), dtype=np.float64
    )
    for site, spot in sites:
        intensity[spot_pixel_mask(spot, camera)] = (
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
    dark=600.0, bit_depth=16, noise=50.0, use_masks=True, roi=(0, 0, 20, 18),
)


@example(**KERNEL_CASE)
@example(**{**KERNEL_CASE, "dark": 0.0})  # saturated spots clip at 0 counts
@example(**{**KERNEL_CASE, "bit_depth": 8, "dark": 30.0, "camera_gain": 1.0})
@example(**{**KERNEL_CASE, "noise": 0.0, "use_masks": False})
@given(
    n_frames=st.integers(1, 12),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=2),
    gains=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
    camera_gain=st.floats(0.5, 300.0),
    dark=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    bit_depth=st.sampled_from([8, 12, 16]),
    noise=st.one_of(st.just(0.0), st.floats(0.1, 200.0)),
    use_masks=st.booleans(),
    roi=st.tuples(st.integers(0, 9), st.integers(0, 8), st.integers(1, 11), st.integers(1, 10)),
)
def test_kernel_matches_reference_byte_for_byte(
    n_frames, fractions, gains, camera_gain, dark, bit_depth, noise, use_masks, roi
):
    camera = window_camera(noise=noise, dark=dark, gain=camera_gain, bit_depth=bit_depth)
    spots = [SpotGeometry(6.0, 9.0, 8.0), SpotGeometry(13.0, 9.0, 8.0)]  # overlapping
    sites = [(site_at(m, g), spot) for m, g, spot in zip(fractions, gains, spots)]
    masks = [spot_pixel_mask(spot, camera) for _, spot in sites] if use_masks else None
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    counts, clipped = expose_frames(n_frames, sites, CONSTANTS, camera, rng, masks=masks)
    ref_counts, ref_clipped = reference_expose_frames(n_frames, sites, CONSTANTS, camera, ref_rng)
    assert counts.dtype == ref_counts.dtype and counts.shape == ref_counts.shape
    assert counts.tobytes() == ref_counts.tobytes()
    assert clipped == ref_clipped
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for stack in (counts, counts.astype(np.int64), counts.astype(np.uint16)):
        mean = average_frames(stack)
        ref_mean = reference_average_frames(stack)
        assert mean.dtype == ref_mean.dtype and mean.tobytes() == ref_mean.tobytes()
    region = Roi(*roi)
    total = integrate_roi(mean, region)
    ref_total = int(mean[region.y : region.y + region.height, region.x : region.x + region.width].sum())
    assert type(total) is int and total == ref_total


def test_integrate_uniform_roi():
    camera = window_camera()
    counts, _ = expose_frames(1, [], CONSTANTS, camera)
    frame = counts[0]
    frame[:] = 7
    assert integrate_roi(frame, Roi(2, 3, 5, 4)) == 7 * 20
    assert integrate_roi(frame, Roi(0, 0, 1, 1)) == 7


def test_integrate_ramp_closed_form():
    camera = window_camera()
    counts, _ = expose_frames(1, [], CONSTANTS, camera)
    frame = counts[0]
    frame[:] = np.arange(camera.width)[None, :]
    # sum over a full-width row span: height * sum(0..width-1)
    total = integrate_roi(frame, Roi(0, 0, camera.width, camera.height))
    assert total == camera.height * (camera.width - 1) * camera.width // 2


def test_integrate_whole_frame_equals_sum():
    camera = window_camera()
    counts, _ = expose_frames(1, [(site_at(0.5), centered_spot(camera))], CONSTANTS, camera)
    assert integrate_roi(counts[0], Roi(0, 0, camera.width, camera.height)) == counts.sum()


def test_integrate_out_of_bounds_rejected():
    counts, _ = expose_frames(1, [], CONSTANTS, window_camera())
    with pytest.raises(ValueError):
        integrate_roi(counts[0], Roi(15, 15, 10, 10))


# -- export -------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    camera = window_camera()
    counts, clipped = expose_frames(1, [(site_at(0.6), centered_spot(camera))], CONSTANTS, camera)
    path = tmp_path / "frame.pgm"
    write_pgm(counts[0], clipped, camera, path)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == f"{camera.width} {camera.height}".encode()
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"65535"
    data = np.frombuffer(pixels, dtype=">u2").reshape(camera.height, camera.width)
    assert np.array_equal(data, counts[0])
    meta = json.loads(path.with_suffix(".pgm.json").read_text())
    assert meta["exposure_s"] == camera.exposure_s


def test_pgm_write_is_atomic(tmp_path):
    camera = window_camera()
    counts, clipped = expose_frames(1, [(site_at(0.6), centered_spot(camera))], CONSTANTS, camera)
    path = tmp_path / "frame.pgm"
    write_pgm(counts[0], clipped, camera, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame.pgm", "frame.pgm.json"]
    header = f"P5\n{camera.width} {camera.height}\n65535\n".encode()
    assert path.read_bytes() == header + counts[0].astype(">u2").tobytes()
    meta = {
        "bit_depth": 16, "clipped": False, "exposure_s": 0.01,
        "height": camera.height, "pixel_area_um2": 1.0, "width": camera.width,
    }
    assert (tmp_path / "frame.pgm.json").read_text() == json.dumps(meta, indent=2) + "\n"


def test_pgm_sidecar_flags_counts_clipped_to_16_bits(tmp_path):
    # 17 bits: the 66600-count background fits the sensor but not the PGM
    camera = window_camera(gain=330.0, bit_depth=17)
    counts, clipped = expose_frames(1, [(site_at(0.6), centered_spot(camera))], CONSTANTS, camera)
    assert not clipped
    assert counts.max() > 65535
    path = tmp_path / "frame.pgm"
    write_pgm(counts[0], clipped, camera, path)
    pixels = np.frombuffer(path.read_bytes()[-2 * counts.size:], dtype=">u2")
    assert np.array_equal(pixels, np.minimum(counts, 65535).ravel())
    assert json.loads(path.with_suffix(".pgm.json").read_text())["clipped"] is True
