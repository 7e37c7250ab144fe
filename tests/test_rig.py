import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron import rig as rig_module
from optoperceptron.config import energy_per_pulse, load_config
from optoperceptron.errors import ConfigurationError, DegenerateBackgroundError
from optoperceptron.optics import (
    average_frames,
    draw_read_noise,
    expose_frames,
    integrate_roi,
    spot_pixel_mask,
)
from optoperceptron.patterns import build_dataset
from optoperceptron.rig import (
    EnergyLedger,
    N_WEIGHT_SITES,
    SITE_LABELS,
    THRESHOLD_SITE,
    shutter_pulses,
)
from optoperceptron.runner import build_rig, emulate_run, make_streams, run_emulate
from optoperceptron.synapse import ERASE, WRITE, apply_packet, response_curve
from optoperceptron.trainer import (
    ACCEPT,
    LOWER_OUTPUT,
    RAISE_OUTPUT,
    evaluate_patterns,
    pattern_output,
    train,
)
from typed_configs import shutter_model


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
    model = shutter_model(jitter_mode="time")
    rng = np.random.default_rng(0)
    counts = shutter_pulses(rng, model, 500)
    assert all(15 <= c <= 25 for c in counts)
    assert len(set(counts)) > 3


def test_degenerate_opening_window():
    model = shutter_model(open_time_min_ms=20, open_time_max_ms=20, jitter_mode="time")
    rng = np.random.default_rng(0)
    assert shutter_pulses(rng, model, 20) == [20] * 20


def test_relative_jitter_range_and_floor():
    model = shutter_model(jitter_mode="relative")
    rng = np.random.default_rng(1)
    counts = shutter_pulses(rng, model, 2000)
    assert all(1 <= c <= 50 for c in counts)
    assert min(counts) < 10  # the factor really spans (0, 1]
    assert max(counts) > 45


def test_jitter_disabled_is_nominal():
    model = shutter_model(jitter_enabled=False)
    rng = np.random.default_rng(2)
    assert shutter_pulses(rng, model, 10) == [50] * 10


def test_shutter_deterministic_per_seed():
    model = shutter_model()
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
    model = shutter_model(
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

PULSE_J = 0.56e-6 / 1000.0  # default write power at the default repetition rate


def test_energy_zero_spot():
    assert energy_per_pulse(PULSE_J, 100.0, 0.0) == 0.0


def test_energy_full_waist_is_full_pulse_energy():
    assert energy_per_pulse(PULSE_J, 100.0, 100.0) == pytest.approx(PULSE_J)


def test_reference_spots_land_in_reported_window():
    small = energy_per_pulse(PULSE_J, 100.0, 25.0)
    large = energy_per_pulse(PULSE_J, 100.0, 40.0)
    assert 33e-12 <= small <= 96e-12
    assert 33e-12 <= large <= 96e-12


def test_ledger_totals_additive_and_order_independent():
    events = [("w1", 100, 50e-12), ("w2", 40, 50e-12), ("b", 7, 10e-12)]
    totals = set()
    for perm in itertools.permutations(events):
        ledger = EnergyLedger(per_read_j=0.4e-9)
        for site, pulses, cost in perm:
            ledger.add_writes(site, "write", [pulses], cost)
        ledger.add_reads(["w1", "w2", "b"])
        totals.add((ledger.total_pulses, ledger.write_energy_j, ledger.read_energy_j))
    assert len(totals) == 1
    (pulses, write_j, read_j) = totals.pop()
    assert pulses == 147
    assert write_j == pytest.approx(140 * 50e-12 + 7 * 10e-12)
    assert read_j == 3 * 0.4e-9


def test_ledger_rejects_negative_writes_whole():
    ledger = EnergyLedger(per_read_j=0.4e-9)
    ledger.add_writes("w1", "write", [3, 4], 1e-12)
    with pytest.raises(ValueError):
        ledger.add_writes("w2", "erase", [5, -1], 1e-12)
    with pytest.raises(ValueError):
        ledger.add_writes("w2", "erase", [5], -1e-12)
    assert ledger.write_events == [("w1", 3, 1e-12), ("w1", 4, 1e-12)]


ledger_ops = st.lists(
    st.one_of(
        st.lists(st.sampled_from(SITE_LABELS), min_size=1, max_size=10).map(lambda s: ("read", s)),
        st.tuples(
            st.just("write"),
            st.sampled_from(SITE_LABELS),
            st.sampled_from(["write", "erase"]),
            st.lists(st.integers(0, 400), max_size=60),
            st.floats(0.0, 1e-9),
        ),
    ),
    max_size=30,
)


@given(ops=ledger_ops, per_read_j=st.sampled_from([0.4e-9, 0.0, 1.3e-10]))
def test_ledger_totals_equal_per_event_reference_sums(ops, per_read_j):
    ledger = EnergyLedger(per_read_j=per_read_j)
    events, reads = [], 0
    for op in ops:
        if op[0] == "read":
            ledger.add_reads(op[1])
            reads += len(op[1])
        else:
            _, site, helicity, pulses, per_pulse_j = op
            ledger.add_writes(site, helicity, pulses, per_pulse_j)
            events.extend((site, p, per_pulse_j) for p in pulses)
    # the reference: one event per packet, each billed pulses x per-pulse
    # energy and summed in delivery order
    pulses = sum(p for _, p, _ in events)
    write_j = sum(p * per_pulse_j for _, p, per_pulse_j in events)
    read_j = reads * per_read_j
    assert ledger.to_json_dict() == {
        "per_read_j": per_read_j,
        "read_events": reads,
        "total_pulses": pulses,
        "write_energy_j": write_j,
        "read_energy_j": read_j,
        "total_energy_j": write_j + read_j,
        "write_events": [{"site": s, "pulses": p, "per_pulse_j": j} for s, p, j in events],
    }
    assert ledger.summary_line() == (
        f"pulses={pulses} write={write_j * 1e9:.3f}nJ reads={reads} "
        f"read={read_j * 1e9:.3f}nJ total={(write_j + read_j) * 1e9:.3f}nJ"
    )
    assert ledger.write_events == events


# -- rig sequencing -----------------------------------------------------------

RECORDED_EVENTS = Path(__file__).parent / "golden" / "rig_events_seed7.json"


def test_rig_events_equal_the_recorded_sequence():
    # Recorded from the rig that appended one tuple per event as it ran:
    # seed 7, default config, initialization plus two learning updates.
    cfg = load_config()
    rig = build_rig(cfg, make_streams(7))
    rig.initialize_network()
    training = build_dataset(cfg.bitmaps).training
    rig.apply_update(training[0], RAISE_OUTPUT)
    rig.apply_update(training[9], LOWER_OUTPUT)
    recorded = [tuple(e) for e in json.loads(RECORDED_EVENTS.read_text())]
    assert rig.events == recorded
    shutter = [(e[1], e[3]) for e in recorded if e[0] == "shutter"]
    assert [(site, pulses) for site, pulses, _ in rig.ledger.write_events] == shutter
    assert rig.ledger.read_events == sum(1 for e in recorded if e[0] == "read")


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
    cfg, rig = make_rig()
    rig._write_packets(0, WRITE, [50])
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
    rig._write_packets(0, WRITE, [50] * 50)
    total = rig.read_sites([0])[0]
    dark = cfg["camera.dark_offset"]
    n_spot = int(rig._window_mask.sum())
    n_px = rig.window_camera.width * rig.window_camera.height
    n_out = n_px - n_spot
    bright = rig.background_sums[0] / n_px
    assert total == n_spot * dark + n_out * bright


def test_fully_written_covering_spot_reads_pure_dark():
    # spot larger than the readout window: no probe light reaches any pixel
    cfg, rig = make_rig(**{"rig.spot_diameter_um": 30.0})
    rig.capture_backgrounds()
    rig._write_packets(5, WRITE, [50] * 50)
    total = rig.read_sites([5])[5]
    assert total == cfg["camera.dark_offset"] * rig.window_camera.width * rig.window_camera.height


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
        rig.apply_learning_update([THRESHOLD_SITE], RAISE_OUTPUT)
    with pytest.raises(ValueError):
        rig.apply_learning_update([-1], LOWER_OUTPUT)


@pytest.mark.parametrize("direction", [ACCEPT, "RAISE"])
def test_learning_update_rejects_a_non_direction(direction):
    cfg, rig = make_rig()
    rig.initialize_network()
    ops = len(rig.ledger.ops)
    with pytest.raises(ValueError, match="direction must be RAISE_OUTPUT or LOWER_OUTPUT"):
        rig.apply_learning_update([0], direction)
    assert len(rig.ledger.ops) == ops


def test_zero_init_packets_gives_zero_weights():
    cfg, rig = make_rig(**{})
    rig.config = rig.config.__class__(
        **{**rig.config.__dict__, "init_weight_packets": 0, "init_threshold_packets": 0}
    )
    # an unwritten threshold site reads 0.0, which judges no pattern
    with pytest.raises(ConfigurationError, match="the threshold reads 0.0"):
        rig.initialize_network()
    state = rig.weight_state()
    assert state.weights == (0.0,) * 9
    assert state.threshold == 0.0


def test_empty_learning_update_changes_nothing():
    cfg, rig = make_rig()
    rig.initialize_network()
    before = [s.accumulated_pulses for s in rig.sites]
    assert rig.apply_learning_update([], LOWER_OUTPUT) == {}
    assert [s.accumulated_pulses for s in rig.sites] == before


def test_learning_update_moves_along_response_curve():
    # start mid-curve so two 50-pulse packets move m by a known amount
    cfg, rig = make_rig(**{"rig.init_weight_packets": 8})  # 400 pulses: mid-curve
    rig.initialize_network()
    site = rig.sites[4]
    n0 = site.accumulated_pulses
    assert n0 == 400
    expected = response_curve(n0 + 100, site.params)
    rig.apply_learning_update([4], RAISE_OUTPUT)
    assert rig.sites[4].written_fraction == expected


def test_raise_then_lower_restores_exactly():
    cfg, rig = make_rig(**{"rig.init_weight_packets": 8})
    rig.initialize_network()
    m0 = rig.sites[1].written_fraction
    rig.apply_learning_update([1], RAISE_OUTPUT)
    rig.apply_learning_update([1], LOWER_OUTPUT)
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
    # the ten written spots, and only they, appear dark on the bright
    # background of the noiseless camera
    camera, diameter = rig.sensor_camera, cfg["rig.spot_diameter_um"]
    spots = np.zeros(counts.shape, dtype=bool)
    for i in range(N_WEIGHT_SITES + 1):
        spots |= spot_pixel_mask(*rig.site_position_um(i), diameter, camera)
    assert np.array_equal(counts < 1000, spots)


def test_rig_ledger_counts_expected_events():
    cfg, rig = make_rig()
    rig.initialize_network()
    # 10 background reads + 10 initial reads; 9 * 50 + 250 write packets
    assert rig.ledger.read_events == 20
    assert len(rig.ledger.write_events) == 9 * 50 + 250
    assert rig.ledger.total_pulses == (9 * 50 + 250) * 50
    assert rig.ledger.read_energy_j == pytest.approx(20 * 0.4e-9)


# -- batched operations ----------------------------------------------------------

def twin_generator(rng):
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def one_site_read(rig, index, rng):
    """One site's read from its own noise draw: total and clip flag."""
    camera, n_frames = rig.window_camera, rig.config.frames_per_read
    counts, clipped = expose_frames(
        n_frames,
        [(rig.sites[index], rig._window_mask)],
        rig.constants,
        camera,
        draw_read_noise(rng, camera, n_frames),
    )
    return integrate_roi(average_frames(counts)), clipped


READ_CASE = dict(
    seed=7, order=[4, 0, 8, 4, 9], pulses=[0, 300, 450, 600, 1200, 0, 80, 500, 700, 1500],
    overrides={},
)


@example(**READ_CASE)
@example(**{**READ_CASE, "overrides": {"camera.read_noise": "0"}})
@example(**{**READ_CASE, "overrides": {"camera.dark_offset": "0"}})  # written spots clip at 0
@example(  # a bright background against an 8-bit full well clips high
    **{**READ_CASE, "overrides": {"camera.bit_depth": "8", "camera.dark_offset": "30",
                                  "camera.gain": "1"}}
)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.lists(st.integers(0, THRESHOLD_SITE), max_size=12),
    pulses=st.lists(st.integers(0, 1500), min_size=10, max_size=10),
    overrides=st.sampled_from([
        {},
        {"camera.read_noise": "0"},
        {"camera.dark_offset": "0", "camera.read_noise": "400"},
        {"camera.bit_depth": "8", "camera.dark_offset": "30", "camera.gain": "1",
         "camera.read_noise": "3"},
    ]),
)
def test_batched_reads_equal_one_site_reads(seed, order, pulses, overrides):
    cfg = load_config(overrides=overrides)
    rig = build_rig(cfg, make_streams(seed))
    twin = twin_generator(rig.camera_rng)
    backgrounds = [one_site_read(rig, i, twin) for i in range(N_WEIGHT_SITES + 1)]
    clipped = [i for i, (_, flag) in enumerate(backgrounds) if flag]
    if clipped:
        with pytest.raises(DegenerateBackgroundError, match=f"site {SITE_LABELS[clipped[0]]} "):
            rig.capture_backgrounds()
        return
    assert rig.capture_backgrounds() == [total for total, _ in backgrounds]
    assert rig.camera_rng.bit_generator.state == twin.bit_generator.state
    for i, n in enumerate(pulses):
        rig.sites[i] = apply_packet(rig.sites[i], WRITE, n)
    expected = {i: one_site_read(rig, i, twin)[0] for i in order}  # a repeat's last read wins
    assert rig.read_sites(order) == expected
    assert rig.camera_rng.bit_generator.state == twin.bit_generator.state
    assert all(rig.written_sums[i] == total for i, total in expected.items())
    assert rig.ledger.read_events == N_WEIGHT_SITES + 1 + len(order)


def test_clipped_background_names_the_first_clipped_site():
    # Noiseless, with the full well between the unwritten level
    # (147 * 200 + 600 = 30000 counts) and the brighter spots: only sites
    # whose background gain exceeds ~1.09 clip.
    cfg, rig = make_rig(**{
        "synapse.site_spread": "0.2", "camera.gain": "147", "camera.bit_depth": "15",
    })
    flags = [one_site_read(rig, i, None)[1] for i in range(N_WEIGHT_SITES + 1)]
    assert not flags[0] and any(flags)
    first = SITE_LABELS[flags.index(True)]
    with pytest.raises(DegenerateBackgroundError, match=f"site {first} clipped"):
        rig.capture_backgrounds()


def per_site_writes(rig, indices, helicity, n_packets):
    """Each site's packets from its own shutter draw; returns pulses/site."""
    applied = {}
    for i in indices:
        delivered = shutter_pulses(rig.shutter_rng, rig.shutter, n_packets[i])
        rig._write_packets(i, helicity, delivered)
        applied[i] = sum(delivered)
    return applied


def write_record(rig):
    """A copy of what the rig's writes leave behind."""
    return (
        list(rig.sites),
        rig.ledger.write_events,
        rig.shutter_rng.bit_generator.state,
        list(rig.events),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([{"shutter.jitter_mode": "relative"}, {"shutter.jitter_mode": "time"},
                            {"shutter.jitter_enabled": "false"}]),
    learning_packets=st.integers(1, 4),
    order=st.lists(st.integers(0, N_WEIGHT_SITES - 1), max_size=12),
    direction=st.sampled_from([RAISE_OUTPUT, LOWER_OUTPUT]),
)
def test_batched_writes_equal_per_site_writes(seed, jitter, learning_packets, order, direction):
    cfg = load_config(overrides={
        **jitter, "rig.learning_packets": str(learning_packets), "rig.init_weight_packets": "20",
    })
    batched, reference = (build_rig(cfg, make_streams(seed)) for _ in range(2))
    batched.initialize_network()
    reference.capture_backgrounds()
    budgets = [cfg["rig.init_weight_packets"]] * N_WEIGHT_SITES + [cfg["rig.init_threshold_packets"]]
    per_site_writes(reference, range(N_WEIGHT_SITES + 1), WRITE, budgets)
    reference.read_sites(range(N_WEIGHT_SITES + 1))
    assert write_record(batched) == write_record(reference)
    assert batched.weight_state() == reference.weight_state()

    helicity = WRITE if direction == RAISE_OUTPUT else ERASE
    applied = batched.apply_learning_update(order, direction)
    assert applied == per_site_writes(reference, order, helicity, [learning_packets] * N_WEIGHT_SITES)
    assert write_record(batched) == write_record(reference)


def test_learning_update_on_the_threshold_site_writes_nothing():
    cfg, rig = make_rig()
    rig.initialize_network()
    before = write_record(rig)
    with pytest.raises(ValueError, match="threshold site"):
        rig.apply_learning_update([0, THRESHOLD_SITE], RAISE_OUTPUT)
    assert write_record(rig) == before


# -- trainer backend on the rig -------------------------------------------------

def test_rig_output_sums_active_contributions():
    cfg, rig = make_rig()
    rig.initialize_network()
    dataset = build_dataset(cfg.bitmaps)
    pattern = dataset.training[0]
    state = rig.weight_state()
    expected = 0.0
    for i in pattern.active_indices:  # the trainer's summation order
        expected += state.contributions[i]
    assert rig.gate() == state.contributions
    assert pattern_output(rig.gate(), pattern) == expected


def test_rig_threshold_is_the_threshold_read_as_float():
    # the count sum becomes the float that every artifact prints
    cfg, rig = make_rig()
    rig.initialize_network()
    threshold = rig.threshold()
    assert type(threshold) is float and threshold == rig.weight_state().threshold


def test_rig_evaluation_is_read_only():
    # default noise: a read would bill the ledger and advance the camera stream
    cfg = load_config()
    rig = build_rig(cfg, make_streams(7))
    config = cfg.trainer_config()
    rig.initialize_network()
    reads, writes = rig.ledger.read_events, len(rig.ledger.write_events)
    camera_state = rig.camera_rng.bit_generator.state
    threshold = rig.threshold()
    results = evaluate_patterns(
        rig, build_dataset(cfg.bitmaps).training, config.target_class, threshold
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
    rig.initialize_network()
    dataset = build_dataset(cfg.bitmaps)
    trace = train(dataset.training, config, rig)
    assert trace.converged
    assert all(s.action == "accept" for s in trace.steps[-24:])
    assert min(rig.weights()) >= 0.0


def test_emulated_training_converges_on_reduced_linear_set():
    cfg, rig = make_rig(
        **{
            "synapse.curve": "linear",
            "synapse.dead_zone_pulses": 0,
            "synapse.saturation_pulses": 25000,
        }
    )
    config = cfg.trainer_config()
    rig.initialize_network()
    dataset = build_dataset(cfg.bitmaps)
    reduced = tuple(p for p in dataset.training if p.variant_index in (0, 2))
    trace = train(reduced, config, rig)
    assert trace.converged
    assert all(s.action == "accept" for s in trace.steps[-len(reduced):])
    assert min(rig.weights()) >= 0.0


# -- trace contract ---------------------------------------------------------------

def test_every_packet_and_render_goes_through_the_traced_names(monkeypatch, tmp_path):
    # The benchmark's per-layer trace counts packets and renders by wrapping
    # rig.apply_packet and rig.expose_frames; a path that bypasses either
    # name would read as a speed-up instead of failing its completeness check.
    # A read operation draws its noise once, but renders each site's scene
    # through the kernel, so rendered scenes and frames follow the reads.
    calls = {"packets": 0, "pulses": 0, "renders": 0, "frames": 0}
    apply_packet, expose_frames = rig_module.apply_packet, rig_module.expose_frames

    def counted_apply_packet(site, helicity, pulse_count):
        calls["packets"] += 1
        calls["pulses"] += pulse_count
        return apply_packet(site, helicity, pulse_count)

    def counted_expose_frames(n_frames, *args, **kwargs):
        calls["renders"] += 1
        calls["frames"] += n_frames
        return expose_frames(n_frames, *args, **kwargs)

    monkeypatch.setattr(rig_module, "apply_packet", counted_apply_packet)
    monkeypatch.setattr(rig_module, "expose_frames", counted_expose_frames)
    cfg = load_config(overrides={"trainer.max_epochs": "3"})
    ledger = emulate_run(cfg, 7, build_dataset(cfg.bitmaps)).rig.ledger
    assert calls["packets"] == len(ledger.write_events) > 0
    assert calls["pulses"] == ledger.total_pulses
    assert calls["renders"] == ledger.read_events > 0
    assert calls["frames"] == ledger.read_events * cfg["rig.frames_per_read"]
    # the full-frame export of --frames is one more one-frame render through the same name
    calls["renders"] = calls["frames"] = 0
    cfg = load_config(overrides={"trainer.max_epochs": "3", "run.dump_frames": "true"})
    run_emulate(cfg, tmp_path, 7)
    ledger_json = json.loads((tmp_path / "ledger.json").read_text())
    assert (tmp_path / "sample_final.pgm").exists()
    assert calls["renders"] == ledger_json["read_events"] + 1
    assert calls["frames"] == ledger_json["read_events"] * cfg["rig.frames_per_read"] + 1
