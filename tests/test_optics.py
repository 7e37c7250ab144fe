import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoperceptron.errors import ConfigurationError
from optoperceptron.optics import (
    BeamConfig,
    CameraConfig,
    OpticalConstants,
    Roi,
    SpotGeometry,
    analyzer_intensity,
    average_frames,
    expose_frame,
    expose_frames,
    integrate_roi,
    peak_fluence_j_cm2,
    spot_pixel_mask,
    write_pgm,
    write_spot_geometry,
)
from optoperceptron.synapse import InhomogeneityParams, SynapseSite

CONSTANTS = OpticalConstants()  # gamma 0.01, delta 0.1, I_in 4e6


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
    with pytest.raises(ConfigurationError):
        OpticalConstants(gamma=0.5)


# -- frame rendering ----------------------------------------------------------

def test_fully_written_spot_reads_dark_level():
    camera = window_camera()
    spot = centered_spot(camera)
    frame = expose_frame([(site_at(1.0), spot)], CONSTANTS, camera)
    from optoperceptron.optics import spot_pixel_mask

    mask = spot_pixel_mask(spot, camera)
    assert np.all(frame.counts[mask] == 600)


def test_zero_exposure_reads_dark_everywhere():
    camera = window_camera(exposure=0.0)
    frame = expose_frame([(site_at(0.3), centered_spot(camera))], CONSTANTS, camera)
    assert np.all(frame.counts == 600)


def test_in_spot_contrast_closed_form():
    camera = window_camera()
    spot = centered_spot(camera)
    from optoperceptron.optics import spot_pixel_mask

    mask = spot_pixel_mask(spot, camera)
    bright = expose_frame([(site_at(0.0), spot)], CONSTANTS, camera)
    dark = expose_frame([(site_at(1.0), spot)], CONSTANTS, camera)
    expected = camera.gain * CONSTANTS.intensity_in * CONSTANTS.c * camera.exposure_s / camera.pixel_area
    deltas = bright.counts[mask] - dark.counts[mask]
    assert np.all(deltas == round(expected))


def test_noiseless_render_deterministic():
    camera = window_camera()
    spot = centered_spot(camera)
    a = expose_frame([(site_at(0.4), spot)], CONSTANTS, camera)
    b = expose_frame([(site_at(0.4), spot)], CONSTANTS, camera)
    assert np.array_equal(a.counts, b.counts)


def test_render_linear_in_exposure_until_clipping():
    base = window_camera(dark=0.0)
    doubled = window_camera(dark=0.0, exposure=0.020)
    spot = centered_spot(base)
    f1 = expose_frame([(site_at(0.5), spot)], CONSTANTS, base)
    f2 = expose_frame([(site_at(0.5), spot)], CONSTANTS, doubled)
    assert not f1.clipped and not f2.clipped
    assert np.array_equal(f2.counts, 2 * f1.counts)


def test_monotone_in_written_fraction():
    camera = window_camera()
    spot = centered_spot(camera)
    previous = expose_frame([(site_at(0.0), spot)], CONSTANTS, camera)
    for m in (0.2, 0.5, 0.8, 1.0):
        current = expose_frame([(site_at(m), spot)], CONSTANTS, camera)
        assert np.all(current.counts <= previous.counts)
        previous = current


def test_background_gain_scales_spot_region():
    camera = window_camera(dark=0.0)
    spot = centered_spot(camera)
    from optoperceptron.optics import spot_pixel_mask

    mask = spot_pixel_mask(spot, camera)
    plain = expose_frame([(site_at(0.0, gain=1.0), spot)], CONSTANTS, camera)
    boosted = expose_frame([(site_at(0.0, gain=1.1), spot)], CONSTANTS, camera)
    assert np.all(boosted.counts[mask] > plain.counts[mask])
    assert np.array_equal(boosted.counts[~mask], plain.counts[~mask])


def test_clipping_sets_flag_not_error():
    camera = window_camera(bit_depth=8)  # full well 255 << bright level
    frame = expose_frame([(site_at(0.0), centered_spot(camera))], CONSTANTS, camera)
    assert frame.clipped
    assert frame.counts.max() == camera.full_well


def test_noise_requires_rng():
    camera = window_camera(noise=5.0)
    with pytest.raises(ValueError):
        expose_frame([(site_at(0.0), centered_spot(camera))], CONSTANTS, camera)


def test_spot_outside_fov_rejected():
    camera = window_camera()
    with pytest.raises(ValueError):
        expose_frame([(site_at(0.0), SpotGeometry(500.0, 5.0, 10.0))], CONSTANTS, camera)


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
    frame = expose_frame([(site_at(0.3), centered_spot(camera))], CONSTANTS, camera)
    assert np.array_equal(average_frames(frame.counts[None]), frame.counts)


def test_average_two_frames():
    stack = np.empty((2, 18, 20))
    stack[0] = 100
    stack[1] = 200
    assert np.all(average_frames(stack) == 150)


def test_average_rejects_mismatched_dimensions():
    frame = expose_frame([], CONSTANTS, window_camera())
    with pytest.raises(ValueError):
        average_frames(frame.counts)  # one frame, not a (frames, h, w) stack


def test_ten_frame_average_reduces_noise():
    sigma = 8.0
    camera = CameraConfig(width=128, height=128, read_noise=sigma, dark_offset=5000.0, gain=100.0)
    rng = np.random.default_rng(11)
    counts, clipped = expose_frames(10, [], CONSTANTS, camera, rng, background_written_fraction=1.0)
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


def test_integrate_uniform_roi():
    camera = window_camera()
    frame = expose_frame([], CONSTANTS, camera)
    frame.counts[:] = 7
    assert integrate_roi(frame.counts, Roi(2, 3, 5, 4)) == 7 * 20
    assert integrate_roi(frame.counts, Roi(0, 0, 1, 1)) == 7


def test_integrate_ramp_closed_form():
    camera = window_camera()
    frame = expose_frame([], CONSTANTS, camera)
    frame.counts[:] = np.arange(camera.width)[None, :]
    # sum over a full-width row span: height * sum(0..width-1)
    total = integrate_roi(frame.counts, Roi(0, 0, camera.width, camera.height))
    assert total == camera.height * (camera.width - 1) * camera.width // 2


def test_integrate_whole_frame_equals_sum():
    camera = window_camera()
    frame = expose_frame([(site_at(0.5), centered_spot(camera))], CONSTANTS, camera)
    assert integrate_roi(frame.counts, Roi(0, 0, camera.width, camera.height)) == frame.counts.sum()


def test_integrate_out_of_bounds_rejected():
    frame = expose_frame([], CONSTANTS, window_camera())
    with pytest.raises(ValueError):
        integrate_roi(frame.counts, Roi(15, 15, 10, 10))


# -- write spot geometry ------------------------------------------------------

def test_zero_power_no_spot():
    beam = BeamConfig(average_power_w=0.0)
    assert write_spot_geometry(beam).diameter_um == 0.0


def test_gaussian_peak_fluence_closed_form():
    beam = BeamConfig(average_power_w=5.15e-3, profile="gaussian")
    w_cm = beam.waist_diameter_um / 2.0 * 1e-4
    expected = 2.0 * beam.pulse_energy_j / (math.pi * w_cm * w_cm)
    assert peak_fluence_j_cm2(beam) == pytest.approx(expected)


def test_gaussian_at_threshold_gives_vanishing_spot():
    base = BeamConfig(average_power_w=1e-3, profile="gaussian")
    threshold = peak_fluence_j_cm2(base)
    beam = BeamConfig(
        average_power_w=1e-3, profile="gaussian", threshold_fluence_j_cm2=threshold
    )
    assert write_spot_geometry(beam).diameter_um == 0.0


def test_gaussian_threshold_radius_formula():
    beam = BeamConfig(average_power_w=5.15e-3, profile="gaussian", threshold_fluence_j_cm2=0.05)
    spot = write_spot_geometry(beam)
    ratio = peak_fluence_j_cm2(beam) / beam.threshold_fluence_j_cm2
    expected = beam.waist_diameter_um * math.sqrt(math.log(ratio) / 2.0)
    assert spot.diameter_um == pytest.approx(expected)


def test_flattop_diameter_grows_with_power():
    low = write_spot_geometry(BeamConfig(average_power_w=4e-3))
    high = write_spot_geometry(BeamConfig(average_power_w=6e-3))
    assert 0.0 < low.diameter_um < high.diameter_um


def test_flattop_near_full_waist_above_threshold():
    beam = BeamConfig(average_power_w=40e-3)  # far above threshold
    spot = write_spot_geometry(beam)
    assert spot.diameter_um >= 0.9 * beam.waist_diameter_um


# -- export -------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    camera = window_camera()
    frame = expose_frame([(site_at(0.6), centered_spot(camera))], CONSTANTS, camera)
    path = tmp_path / "frame.pgm"
    write_pgm(frame, path)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == f"{camera.width} {camera.height}".encode()
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"65535"
    data = np.frombuffer(pixels, dtype=">u2").reshape(camera.height, camera.width)
    assert np.array_equal(data, frame.counts)
    meta = json.loads(path.with_suffix(".pgm.json").read_text())
    assert meta["exposure_s"] == camera.exposure_s


def test_pgm_write_is_atomic(tmp_path):
    camera = window_camera()
    frame = expose_frame([(site_at(0.6), centered_spot(camera))], CONSTANTS, camera)
    path = tmp_path / "frame.pgm"
    write_pgm(frame, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame.pgm", "frame.pgm.json"]
    header = f"P5\n{camera.width} {camera.height}\n65535\n".encode()
    assert path.read_bytes() == header + frame.counts.astype(">u2").tobytes()
    meta = {
        "bit_depth": 16, "clipped": False, "exposure_s": 0.01,
        "height": camera.height, "pixel_area_um2": 1.0, "width": camera.width,
    }
    assert (tmp_path / "frame.pgm.json").read_text() == json.dumps(meta, indent=2) + "\n"
