import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoperceptron import rig as rig_module
from optoperceptron.config import load_config
from optoperceptron.optics import BeamConfig
from optoperceptron.patterns import build_dataset
from optoperceptron.rig import (
    EnergyLedger,
    N_WEIGHT_SITES,
    RigBackend,
    ShutterModel,
    THRESHOLD_SITE,
    energy_per_pulse,
    shutter_pulses,
)
from optoperceptron.runner import build_rig, emulate_run, make_streams, run_emulate
from optoperceptron.synapse import response_curve
from optoperceptron.trainer import Action, evaluate_patterns, train


def quiet_overrides(**extra):
    base = {
        "camera.read_noise": "0",
        "shutter.jitter_enabled": "false",
        "synapse.site_spread": "0",
    }
    base.update({k: str(v) for k, v in extra.items()})
    return base


def make_rig(seed=0, **extra):
    cfg = load_config(overrides=quiet_overrides(**extra))
    return cfg, build_rig(cfg, make_streams(seed))


# -- shutter ------------------------------------------------------------------

def test_time_derived_counts_match_opening_window():
    model = ShutterModel(jitter_mode="time")
    rng = np.random.default_rng(0)
    counts = shutter_pulses(rng, model, 500)
    assert all(15 <= c <= 25 for c in counts)
    assert len(set(counts)) > 3


def test_degenerate_opening_window():
    model = ShutterModel(open_time_min_ms=20, open_time_max_ms=20, jitter_mode="time")
    rng = np.random.default_rng(0)
    assert shutter_pulses(rng, model, 20) == [20] * 20


def test_relative_jitter_range_and_floor():
    model = ShutterModel(jitter_mode="relative")
    rng = np.random.default_rng(1)
    counts = shutter_pulses(rng, model, 2000)
    assert all(1 <= c <= 50 for c in counts)
    assert min(counts) < 10  # the factor really spans (0, 1]
    assert max(counts) > 45


def test_jitter_disabled_is_nominal():
    model = ShutterModel(jitter_enabled=False)
    rng = np.random.default_rng(2)
    assert shutter_pulses(rng, model, 10) == [50] * 10


def test_shutter_deterministic_per_seed():
    model = ShutterModel()
    a = shutter_pulses(np.random.default_rng(7), model, 5)
    b = shutter_pulses(np.random.default_rng(7), model, 5)
    assert a == b


def scalar_shutter_event(rng, model):
    """One packet's pulse count from its own scalar draw."""
    if not model.jitter_enabled:
        return model.nominal_packet_pulses
    if model.jitter_mode == "time":
        opening_s = rng.uniform(model.open_time_min_ms, model.open_time_max_ms) / 1000.0
        count = int(round(model.repetition_rate_hz * opening_s))
    else:
        factor = 1.0 - rng.random()
        count = int(round(model.nominal_packet_pulses * factor))
    return max(count, 1)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    mode=st.sampled_from(["relative", "time"]),
    enabled=st.booleans(),
    nominal=st.integers(1, 400),
    open_min_ms=st.floats(0.01, 40.0),
    open_span_ms=st.floats(0.0, 40.0),
    rate_hz=st.floats(1.0, 1e5),
)
def test_batched_shutter_draw_equals_scalar_draws(
    seed, n, mode, enabled, nominal, open_min_ms, open_span_ms, rate_hz
):
    model = ShutterModel(
        open_time_min_ms=open_min_ms,
        open_time_max_ms=open_min_ms + open_span_ms,
        repetition_rate_hz=rate_hz,
        nominal_packet_pulses=nominal,
        jitter_mode=mode,
        jitter_enabled=enabled,
    )
    batched_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = shutter_pulses(batched_rng, model, n)
    assert batched == [scalar_shutter_event(scalar_rng, model) for _ in range(n)]
    assert all(type(c) is int for c in batched)
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
    if not enabled:
        assert batched_rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


# -- energy -------------------------------------------------------------------

def beam():
    return BeamConfig(average_power_w=0.56e-6, waist_diameter_um=100.0)


def test_energy_zero_spot():
    assert energy_per_pulse(beam(), 0.0) == 0.0


def test_energy_full_waist_is_full_pulse_energy():
    b = beam()
    assert energy_per_pulse(b, 100.0) == pytest.approx(b.pulse_energy_j)


def test_reference_spots_land_in_reported_window():
    small = energy_per_pulse(beam(), 25.0)
    large = energy_per_pulse(beam(), 40.0)
    assert 33e-12 <= small <= 96e-12
    assert 33e-12 <= large <= 96e-12


def test_ledger_totals_additive_and_order_independent():
    events = [("w1", 100, 50e-12), ("w2", 40, 50e-12), ("b", 7, 10e-12)]
    totals = set()
    for perm in itertools.permutations(events):
        ledger = EnergyLedger(per_read_j=0.4e-9)
        for site, pulses, cost in perm:
            ledger.add_writes(site, [pulses], cost)
        ledger.add_reads(3)
        totals.add((ledger.total_pulses, ledger.write_energy_j, ledger.read_energy_j))
    assert len(totals) == 1
    (pulses, write_j, read_j) = totals.pop()
    assert pulses == 147
    assert write_j == pytest.approx(140 * 50e-12 + 7 * 10e-12)
    assert read_j == 3 * 0.4e-9


def test_ledger_rejects_negative_writes_whole():
    ledger = EnergyLedger()
    ledger.add_writes("w1", [3, 4], 1e-12)
    with pytest.raises(ValueError):
        ledger.add_writes("w2", [5, -1], 1e-12)
    with pytest.raises(ValueError):
        ledger.add_writes("w2", [5], -1e-12)
    assert [(e.site, e.pulses) for e in ledger.write_events] == [("w1", 3), ("w1", 4)]


# -- rig sequencing -----------------------------------------------------------

def test_initialization_saturates_weight_sites():
    cfg, rig = make_rig()
    state = rig.initialize_network()
    for site in rig.sites:
        assert site.written_fraction == 1.0  # 2500 pulses >> 600-pulse knee
    # identical sites, noiseless: every weight sits at the same maximum,
    # the spot's share of the ROI darkening
    assert len(set(state.weights)) == 1
    expected = state.contributions[0] / state.background_sums[0]
    assert state.weights[0] == pytest.approx(expected)
    assert state.weights[0] > 0.2


def test_backgrounds_required_before_writing():
    from optoperceptron.synapse import Helicity

    cfg, rig = make_rig()
    rig._write_packets(0, Helicity.WRITE, 1)
    with pytest.raises(ValueError):
        rig.capture_backgrounds()


def test_unwritten_site_reads_background():
    cfg, rig = make_rig()
    backgrounds = rig.capture_backgrounds()
    sums = rig.read_sites(range(10))
    assert [sums[i] for i in range(10)] == backgrounds


def test_fully_written_site_reads_dark_area():
    cfg, rig = make_rig()
    rig.capture_backgrounds()
    from optoperceptron.synapse import Helicity

    rig._write_packets(0, Helicity.WRITE, 50)
    total = rig.read_sites([0])[0]
    dark = cfg["camera.dark_offset"]
    n_spot = int(rig._window_mask.sum())
    n_px = rig.window_roi.width * rig.window_roi.height
    n_out = n_px - n_spot
    bright = rig.background_sums[0] / n_px
    assert total == n_spot * dark + n_out * bright


def test_fully_written_covering_spot_reads_pure_dark():
    # spot larger than the readout window: no probe light reaches any pixel
    cfg, rig = make_rig(**{"rig.spot_diameter_um": 30.0})
    rig.capture_backgrounds()
    from optoperceptron.synapse import Helicity

    rig._write_packets(5, Helicity.WRITE, 50)
    total = rig.read_sites([5])[5]
    assert total == cfg["camera.dark_offset"] * rig.window_roi.width * rig.window_roi.height


def test_read_is_pure_without_writes():
    cfg, rig = make_rig()
    rig.initialize_network()
    first = rig.read_sites([3])[3]
    second = rig.read_sites([3])[3]
    assert first == second


def test_read_updates_only_listed_sites():
    cfg, rig = make_rig()
    rig.initialize_network()
    cached = list(rig.written_sums)
    rig.sites[2] = rig.sites[2]  # no physical change
    rig.read_sites([2])
    assert rig.written_sums[:2] == cached[:2]
    assert rig.written_sums[3:] == cached[3:]


def test_site_addressing_is_bounded():
    cfg, rig = make_rig()
    rig.initialize_network()
    with pytest.raises(ValueError):
        rig.read_sites([10])
    with pytest.raises(ValueError):
        rig.apply_learning_update([THRESHOLD_SITE], Action.RAISE_OUTPUT)
    with pytest.raises(ValueError):
        rig.apply_learning_update([-1], Action.LOWER_OUTPUT)


def test_zero_init_packets_gives_zero_weights():
    cfg, rig = make_rig(**{})
    rig.config = rig.config.__class__(
        **{**rig.config.__dict__, "init_weight_packets": 0, "init_threshold_packets": 0}
    )
    state = rig.initialize_network()
    assert state.weights == (0.0,) * 9
    assert state.threshold == 0.0


def test_empty_learning_update_changes_nothing():
    cfg, rig = make_rig()
    rig.initialize_network()
    before = [s.accumulated_pulses for s in rig.sites]
    assert rig.apply_learning_update([], Action.LOWER_OUTPUT) == {}
    assert [s.accumulated_pulses for s in rig.sites] == before


def test_learning_update_moves_along_response_curve():
    # start mid-curve so two 50-pulse packets move m by a known amount
    cfg, rig = make_rig(**{"rig.init_weight_packets": 8})  # 400 pulses: mid-curve
    rig.initialize_network()
    site = rig.sites[4]
    n0 = site.accumulated_pulses
    assert n0 == 400
    expected = response_curve(n0 + 100, site.params)
    rig.apply_learning_update([4], Action.RAISE_OUTPUT)
    assert rig.sites[4].written_fraction == expected


def test_raise_then_lower_restores_exactly():
    cfg, rig = make_rig(**{"rig.init_weight_packets": 8})
    rig.initialize_network()
    m0 = rig.sites[1].written_fraction
    rig.apply_learning_update([1], Action.RAISE_OUTPUT)
    rig.apply_learning_update([1], Action.LOWER_OUTPUT)
    assert rig.sites[1].written_fraction == m0


def test_threshold_to_weight_ratio_in_linear_region():
    # 5x the packets must give 5x the count-scale value when the response
    # curve never leaves its proportional range
    cfg, rig = make_rig(
        **{
            "synapse.curve": "linear",
            "synapse.dead_zone_pulses": 0,
            "synapse.saturation_pulses": 25000,
        }
    )
    state = rig.initialize_network()
    weight_counts = state.contributions[0]
    ratio = state.threshold / weight_counts
    assert ratio == pytest.approx(5.0, rel=1e-3)
    # matches the simulation-mode convention b0 / w0 = 2.5 / 0.5
    assert ratio == pytest.approx(2.5 / 0.5, rel=1e-3)


def test_full_frame_renders_all_sites():
    cfg, rig = make_rig()
    rig.initialize_network()
    counts, clipped = rig.full_frame()
    assert counts.shape == (cfg["camera.height_px"], cfg["camera.width_px"])
    assert counts.dtype == np.int64 and not clipped
    # ten written spots must appear as dark disks on the bright background
    dark_pixels = int((counts < 1000).sum())
    assert dark_pixels > 10 * 0.8 * rig._window_mask.sum()


def test_rig_ledger_counts_expected_events():
    cfg, rig = make_rig()
    rig.initialize_network()
    # 10 background reads + 10 initial reads; 9 * 50 + 250 write packets
    assert rig.ledger.read_events == 20
    assert len(rig.ledger.write_events) == 9 * 50 + 250
    assert rig.ledger.total_pulses == (9 * 50 + 250) * 50
    assert rig.ledger.read_energy_j == pytest.approx(20 * 0.4e-9)


# -- trainer backend on the rig -------------------------------------------------

def test_rig_backend_output_sums_active_contributions():
    cfg, rig = make_rig()
    backend = RigBackend(rig)
    dataset = build_dataset(cfg.bitmaps)
    pattern = dataset.training[0]
    state = backend.rig.weight_state()
    expected = 0.0
    for i in pattern.active_indices:  # the backend's summation order
        expected += state.contributions[i]
    assert backend.output(pattern) == expected


def test_rig_backend_threshold_is_the_threshold_read_as_float():
    # the count sum becomes the float that every artifact prints
    cfg, rig = make_rig()
    threshold = RigBackend(rig).threshold()
    assert type(threshold) is float and threshold == rig.weight_state().threshold


def test_rig_evaluation_is_read_only():
    # default noise: a read would bill the ledger and advance the camera stream
    cfg = load_config()
    rig = build_rig(cfg, make_streams(7))
    config = cfg.trainer_config()
    backend = RigBackend(rig)
    reads, writes = rig.ledger.read_events, len(rig.ledger.write_events)
    camera_state = rig.camera_rng.bit_generator.state
    threshold = backend.threshold()
    results = evaluate_patterns(
        backend, build_dataset(cfg.bitmaps).training, config.target_class, threshold
    )
    assert rig.ledger.read_events == reads
    assert len(rig.ledger.write_events) == writes
    assert rig.camera_rng.bit_generator.state == camera_state
    assert {r.threshold for r in results} == {threshold}


def test_emulated_training_converges_full_default_set():
    # keep the shutter jitter: its stochastic packet size is what breaks the
    # update limit cycles, exactly like the random learning rate in simulation
    cfg = load_config(overrides={"camera.read_noise": "0"})
    rig = build_rig(cfg, make_streams(4))
    config = cfg.trainer_config()
    backend = RigBackend(rig)
    dataset = build_dataset(cfg.bitmaps)
    trace = train(dataset.training, config, backend)
    assert trace.converged
    assert all(s.action == "accept" for s in trace.steps[-24:])
    assert min(backend.weights()) >= 0.0


def test_emulated_training_converges_on_reduced_linear_set():
    cfg, rig = make_rig(
        **{
            "synapse.curve": "linear",
            "synapse.dead_zone_pulses": 0,
            "synapse.saturation_pulses": 25000,
        }
    )
    config = cfg.trainer_config()
    backend = RigBackend(rig)
    dataset = build_dataset(cfg.bitmaps)
    reduced = tuple(p for p in dataset.training if p.variant_index in (0, 2))
    trace = train(reduced, config, backend)
    assert trace.converged
    assert all(s.action == "accept" for s in trace.steps[-len(reduced):])
    assert min(backend.weights()) >= 0.0


# -- trace contract ---------------------------------------------------------------

def test_every_packet_and_render_goes_through_the_traced_names(monkeypatch, tmp_path):
    # The benchmark's per-layer trace counts packets and renders by wrapping
    # rig.apply_packet and rig.expose_frames; a path that bypasses either
    # name would read as a speed-up instead of failing its completeness check.
    calls = {"packets": 0, "pulses": 0, "renders": 0}
    apply_packet, expose_frames = rig_module.apply_packet, rig_module.expose_frames

    def counted_apply_packet(site, helicity, pulse_count):
        calls["packets"] += 1
        calls["pulses"] += pulse_count
        return apply_packet(site, helicity, pulse_count)

    def counted_expose_frames(*args, **kwargs):
        calls["renders"] += 1
        return expose_frames(*args, **kwargs)

    monkeypatch.setattr(rig_module, "apply_packet", counted_apply_packet)
    monkeypatch.setattr(rig_module, "expose_frames", counted_expose_frames)
    cfg = load_config(overrides={"trainer.max_epochs": "3"})
    ledger = emulate_run(cfg, 7, build_dataset(cfg.bitmaps)).rig.ledger
    assert calls["packets"] == len(ledger.write_events) > 0
    assert calls["pulses"] == ledger.total_pulses
    assert calls["renders"] == ledger.read_events > 0
    # the full-frame export of --frames is one more render through the same name
    calls["renders"] = 0
    cfg = load_config(overrides={"trainer.max_epochs": "3", "run.dump_frames": "true"})
    run_emulate(cfg, tmp_path, 7)
    ledger_json = json.loads((tmp_path / "ledger.json").read_text())
    assert (tmp_path / "sample_final.pgm").exists()
    assert calls["renders"] == ledger_json["read_events"] + 1
