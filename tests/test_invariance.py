"""Invariances the physics guarantees.

A run's outputs depend on its lengths only through their ratio to the
camera's pixel scale, and its counts on gain x intensity x exposure over
pixel area. So scaling every length key by k and the gain by k^2, or
doubling the gain and halving the intensity or the exposure, moves no
artifact byte but the config echo and the fields that state a length, an
area or a time. With time jitter a packet's pulses depend on the laser's
repetition rate x the shutter's opening and a pulse's energy on write power
/ rate, so doubling rate and power and halving both openings moves none.
A simulate run's decisions depend on the ratios of its weights, threshold
and learning rates alone, so doubling all three doubles every value of its
trace. At a power-of-two factor every float operation scales
exactly, so equality holds bit for bit.
"""

import json

import pytest
from test_golden import CASES

from optoperceptron.config import KEY_TABLE, load_config, parse_config_text
from optoperceptron.patterns import build_dataset
from optoperceptron.runner import simulate_run

LENGTH_KEYS = (
    "camera.pixel_scale_um", "rig.roi_width_um", "rig.roi_height_um", "rig.spot_diameter_um",
    "rig.site_spacing_um", "energy.waist_um", "energy.spot_small_um", "energy.spot_large_um",
)
SHORT = {"trainer.max_epochs": 3}
# every length x k and the gain x k^2, which keeps the counts of a pixel
LENGTH_SCALES = (2, 0.25)
# the gain x 2 and one light input / 2, which keeps every count
HALF_THE_LIGHT = {
    key: {**SHORT, "camera.gain": 2 * KEY_TABLE["camera.gain"].default, key: KEY_TABLE[key].default / 2}
    for key in ("optics.intensity_in", "camera.exposure_ms")
}
# at jitter_mode = time a packet's pulses are rate x opening and a pulse's
# energy power / rate: the rate and the power x 2 with both openings / 2 keep both
TIME_JITTER = {**SHORT, "shutter.jitter_mode": "time"}
FASTER_SHUTTER = {
    **TIME_JITTER,
    **{key: 2 * KEY_TABLE[key].default for key in ("shutter.repetition_rate_hz", "energy.write_power_uw")},
    **{key: KEY_TABLE[key].default / 2 for key in ("shutter.open_time_min_ms", "shutter.open_time_max_ms")},
}
RUNS = pytest.mark.parametrize("argv", [["emulate", "--verbose", "--frames"], ["energy"]], ids=["emulate", "energy"])


@pytest.mark.parametrize("k", LENGTH_SCALES)
@RUNS
def test_scaling_every_length_by_k_and_the_gain_by_k_squared_moves_no_artifact(files_of, argv, k):
    scaled_values = {**SHORT, **{key: k * KEY_TABLE[key].default for key in LENGTH_KEYS},
                     "camera.gain": k * k * KEY_TABLE["camera.gain"].default}
    base, scaled = (files_of(*argv, "--seed", "7", config=values) for values in (SHORT, scaled_values))
    assert sorted(base) == sorted(scaled)
    assert base.pop("config.resolved.txt") != scaled.pop("config.resolved.txt")
    if "sample_final.pgm.json" in base:
        sidecar, scaled_sidecar = (json.loads(d.pop("sample_final.pgm.json")) for d in (base, scaled))
        assert scaled_sidecar.pop("pixel_area_um2") == k * k * sidecar.pop("pixel_area_um2")
        assert scaled_sidecar == sidecar
    if "energy.txt" in base:
        stated = base.pop("energy.txt")
        for diameter in (25.0, 40.0):
            stated = stated.replace(f"({diameter} um spot)".encode(), f"({k * diameter} um spot)".encode())
        assert scaled.pop("energy.txt") == stated
    assert [name for name in base if base[name] != scaled[name]] == []


@pytest.mark.parametrize("halved", HALF_THE_LIGHT)
@RUNS
def test_doubling_the_gain_with_half_the_light_moves_no_artifact(files_of, argv, halved):
    base, scaled = (files_of(*argv, "--seed", "7", config=values) for values in (SHORT, HALF_THE_LIGHT[halved]))
    assert sorted(base) == sorted(scaled)
    assert base.pop("config.resolved.txt") != scaled.pop("config.resolved.txt")
    if "sample_final.pgm.json" in base:
        sidecar, scaled_sidecar = (json.loads(d.pop("sample_final.pgm.json")) for d in (base, scaled))
        factor = 0.5 if halved == "camera.exposure_ms" else 1.0
        assert scaled_sidecar.pop("exposure_s") == factor * sidecar.pop("exposure_s")
        assert scaled_sidecar == sidecar
    assert [name for name in base if base[name] != scaled[name]] == []


@RUNS
def test_doubling_the_rate_and_power_with_half_the_opening_moves_no_artifact(files_of, argv):
    base, scaled = (files_of(*argv, "--seed", "7", config=values) for values in (TIME_JITTER, FASTER_SHUTTER))
    assert sorted(base) == sorted(scaled)
    assert base.pop("config.resolved.txt") != scaled.pop("config.resolved.txt")
    assert [name for name in base if base[name] != scaled[name]] == []


TRAINER_SCALES = ("trainer.initial_weight", "trainer.initial_threshold", "trainer.eta_max", "trainer.eta_fixed")


@pytest.mark.parametrize("case", ["simulate", "simulate-raises"])
@pytest.mark.parametrize("seed", [3, 7, 8])
def test_doubling_weights_threshold_and_rates_doubles_every_simulate_value(case, seed):
    overrides = {key: raw for key, raw, _ in parse_config_text(CASES[case][1] or "")}
    base_cfg = load_config(overrides=overrides)
    doubled = {key: repr(2 * base_cfg[key]) for key in TRAINER_SCALES if base_cfg[key] is not None}
    scaled_cfg = load_config(overrides=overrides | doubled)
    dataset = build_dataset(base_cfg.bitmaps)
    base = simulate_run(base_cfg, seed, dataset, bars=False).trace
    scaled = simulate_run(scaled_cfg, seed, dataset, bars=False).trace
    assert base.total_steps == scaled.total_steps > 0
    assert (base.threshold_raises > 0) == (case == "simulate-raises")
    for row, scaled_row in zip(base.rows, scaled.rows, strict=True):
        step, pattern_id, cls, output, threshold, action, eta, pulses, weights = row
        assert scaled_row == (
            step, pattern_id, cls, 2 * output, 2 * threshold, action,
            None if eta is None else 2 * eta, pulses, tuple(2 * w for w in weights),
        )
    assert scaled.final_threshold == 2 * base.final_threshold
    assert scaled.final_weights == tuple(2 * w for w in base.final_weights)
    assert (scaled.converged, scaled.epochs, scaled.threshold_raises) == (
        base.converged, base.epochs, base.threshold_raises)
