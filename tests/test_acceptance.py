"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import statistics
import time

import numpy as np
import pytest

from optoperceptron.config import load_config
from optoperceptron.optics import expose_frames, integrate_roi, spot_pixel_mask
from optoperceptron.patterns import build_dataset
from optoperceptron.runner import (
    build_rig,
    emulate_run,
    make_streams,
    run_emulate,
    run_energy,
    simulate_run,
)
from optoperceptron.synapse import SynapseSite, response_curve
from optoperceptron.trainer import VectorBackend, train
from optoperceptron.weights import extract_weight
from typed_configs import camera_config, optical_constants, site_params, zero_noise

N_SWEEP_SEEDS = 50


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def simulate_sweep():
    cfg = load_config()
    start = time.monotonic()
    dataset = build_dataset(cfg.bitmaps)
    results = [simulate_run(cfg, seed, dataset) for seed in range(N_SWEEP_SEEDS)]
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_convergence_scale(simulate_sweep):
    results, elapsed = simulate_sweep
    converged = [r for r in results if r.trace.converged]
    steps = [r.trace.total_steps for r in converged]
    median = statistics.median(steps) if steps else float("inf")
    ok = (
        len(converged) == N_SWEEP_SEEDS
        and 200 <= median <= 800
        and elapsed < 10.0
    )
    report(
        "1 convergence-scale",
        ok,
        f"{len(converged)}/{N_SWEEP_SEEDS} converged, median {median} steps "
        f"(window [200, 800]), sweep took {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_generalization(simulate_sweep):
    results, _ = simulate_sweep
    converged = [r for r in results if r.trace.converged]
    perfect = sum(1 for r in converged if r.test_correct == 3)
    rate = perfect / len(converged)
    report(
        "2 generalization",
        rate >= 0.95,
        f"{perfect}/{len(converged)} converged seeds classify all 3 held-out "
        f"patterns ({rate:.0%} >= 95%)",
    )


def test_criterion_3_non_negative_weights(simulate_sweep):
    results, _ = simulate_sweep
    converged = [r for r in results if r.trace.converged]
    min_weight = min(min(r.trace.final_weights) for r in converged)
    raises_logged = all(
        r.trace.threshold_raises == len(r.trace.raises) for r in results
    )
    ok = min_weight >= 0.0 and raises_logged
    report(
        "3 non-negative-weights",
        ok,
        f"minimum final weight over {len(converged)} converged runs is "
        f"{min_weight:.6f} (>= 0); threshold raises logged per-event",
    )


def test_criterion_4_class_block_structure(simulate_sweep):
    results, _ = simulate_sweep
    checked = 0
    for r in results[:10]:
        if not r.trace.converged:
            continue
        ordered = r.post_train_eval  # training order is the z, v, n blocks
        sides = ["above" if e.output > e.threshold else "below" for e in ordered]
        assert [e.class_label for e in ordered] == ["z"] * 8 + ["v"] * 8 + ["n"] * 8
        if sides != ["below"] * 8 + ["above"] * 8 + ["below"] * 8:
            report("4 class-block-structure", False, f"seed {r.seed} produced {sides}")
        checked += 1
    report(
        "4 class-block-structure",
        checked > 0,
        f"post-convergence z/v/n passes show 8 below / 8 above / 8 below "
        f"({checked} seeds checked)",
    )


def test_criterion_5_synapse_curve():
    nominal = site_params()
    at_dead = response_curve(250, nominal)
    at_sat = response_curve(600, nominal)
    rng = np.random.default_rng(123)
    monotone = True
    for _ in range(10_000):
        dead = int(rng.integers(0, 1000))
        sat = int(rng.integers(dead + 1, dead + 5000))
        params = site_params(dead_zone_pulses=dead, saturation_pulses=sat, site_spread=0)
        n1 = float(rng.uniform(-100, sat + 1000))
        n2 = n1 + float(rng.uniform(0, 1000))
        if response_curve(n2, params) < response_curve(n1, params):
            monotone = False
            break
    ok = at_dead <= 0.02 and at_sat >= 0.98 and monotone
    report(
        "5 synapse-curve",
        ok,
        f"m(250) = {at_dead:.4f} (<= 0.02), m(600) = {at_sat:.4f} (>= 0.98), "
        f"monotone over 10^4 sampled parameter/pulse pairs",
    )


def test_criterion_6_readout_linearity():
    # proportional-regime camera: no dark offset, spot covering the whole
    # readout window, gain high enough that quantization sits below 1e-6
    constants = optical_constants()
    camera = camera_config(
        width_px=17, height_px=16, pixel_scale_um=1.0, exposure_ms=10.0,
        gain=10_000.0, dark_offset=0.0, read_noise=0.0, bit_depth=32,
    )
    mask = spot_pixel_mask(8.5, 8.0, 40.0, camera)  # disk covers every pixel
    params = site_params()

    def roi_sum(m: float) -> int:
        counts, _ = expose_frames(
            1, [(SynapseSite(m, 0, params), mask)], constants, camera, zero_noise(camera)
        )
        return integrate_roi(counts[0])

    background = roi_sum(0.0)
    worst = 0.0
    for m in np.linspace(0.0, 1.0, 100):
        recovered = extract_weight(background, roi_sum(float(m)))
        worst = max(worst, abs(recovered - float(m)))
    report(
        "6 readout-linearity",
        worst <= 1e-6,
        f"worst |recovered - m| over 100 points is {worst:.2e} (<= 1e-6)",
    )


def equivalence_overrides():
    return {
        "synapse.curve": "linear",
        "synapse.dead_zone_pulses": "0",
        "synapse.saturation_pulses": "25000",
        "synapse.site_spread": "0",
        "shutter.jitter_enabled": "false",
        "camera.read_noise": "0",
        "trainer.eta_fixed": "0.015625",
        "trainer.max_epochs": "300",
        "rig.init_weight_packets": "64",
        "rig.init_threshold_packets": "320",
    }


def test_criterion_7_mode_equivalence():
    # linear response region, no noise, no jitter: two 50-pulse packets on a
    # 3200-pulse pre-weight are exactly the simulation's eta = 1/64 on
    # w0 = 0.5 against b0 = 2.5 (both dyadic, so float comparisons are exact)
    cfg = load_config(overrides=equivalence_overrides())
    dataset = build_dataset(cfg.bitmaps)
    reduced = tuple(p for p in dataset.training if p.variant_index in (0, 2))
    trainer_cfg = cfg.trainer_config()

    sim_backend = VectorBackend(trainer_cfg, rng=np.random.default_rng(3))
    sim_trace = train(reduced, trainer_cfg, sim_backend)
    rig = build_rig(cfg, make_streams(3))
    rig.initialize_network()
    emu_trace = train(reduced, trainer_cfg, rig)

    sim_decisions = [(s.pattern_id, s.action) for s in sim_trace.steps]
    emu_decisions = [(s.pattern_id, s.action) for s in emu_trace.steps]
    ok = (
        sim_decisions == emu_decisions
        and sim_trace.converged
        and emu_trace.converged
        and sim_trace.threshold_raises == 0
        and emu_trace.threshold_raises == 0
    )
    report(
        "7 mode-equivalence",
        ok,
        f"decision sequences identical over {len(sim_decisions)} steps on the "
        f"6-pattern set (both converged)",
    )


def test_criterion_8_energy_ledger(tmp_path):
    cfg = load_config()
    small = cfg.per_pulse_j(cfg["energy.spot_small_um"])
    large = cfg.per_pulse_j(cfg["energy.spot_large_um"])
    in_window = 33e-12 <= small <= 96e-12 and 33e-12 <= large <= 96e-12

    # the energy mode writes the emulate run's own ledger, byte for byte,
    # billing 10 backgrounds + 10 initial reads + one read per updated site
    run_energy(cfg, tmp_path / "energy", 0)
    run_emulate(cfg, tmp_path / "emulate", 0)
    energy_bytes = (tmp_path / "energy" / "ledger.json").read_bytes()
    energy_ledger = json.loads(energy_bytes)
    trace = json.loads((tmp_path / "emulate" / "trace.json").read_text())
    emulate_updated = sum(len(s["pulses"]) for s in trace["steps"] if s["pulses"])
    energy_exact = (
        energy_bytes == (tmp_path / "emulate" / "ledger.json").read_bytes()
        and energy_ledger["read_events"] == 20 + emulate_updated
        and energy_ledger["read_energy_j"] == energy_ledger["read_events"] * 0.4e-9
    )

    # live rig ledger from a short emulated run must bill every actual read
    emu_cfg = load_config(overrides={"trainer.max_epochs": "3"})
    emu = emulate_run(emu_cfg, 0, build_dataset(emu_cfg.bitmaps))
    ledger = emu.rig.ledger
    updated_sites = sum(len(s.pulses) for s in emu.trace.steps if s.pulses)
    expected_live_reads = 20 + updated_sites  # 10 backgrounds + 10 init reads
    live_exact = (
        ledger.read_events == expected_live_reads
        and ledger.read_energy_j == ledger.read_events * 0.4e-9
        and ledger.read_events > 0
    )
    ok = in_window and energy_exact and live_exact
    report(
        "8 energy-ledger",
        ok,
        f"per-pulse energies {small * 1e12:.1f} / {large * 1e12:.1f} pJ inside "
        f"[33, 96] pJ; emulate ledger bills {ledger.read_events} reads x 0.4 nJ exactly",
    )


def test_criterion_9_determinism(tmp_path):
    from optoperceptron.cli import main

    compared = 0
    mismatched = []
    for mode, extra in [
        ("simulate", []),
        ("dataset", []),
        ("energy", []),
        ("sweep", ["--seeds", "3"]),
        ("emulate", []),
    ]:
        config_file = tmp_path / f"{mode}.cfg"
        config_file.write_text("trainer.max_epochs = 3\n" if mode == "emulate" else "")
        dirs = [tmp_path / f"{mode}_a", tmp_path / f"{mode}_b"]
        for out in dirs:
            code = main(
                [mode, "--config", str(config_file), "--seed", "7", "--out", str(out)]
                + extra
            )
            assert code == 0
        for artifact in sorted(dirs[0].iterdir()):
            twin = dirs[1] / artifact.name
            compared += 1
            if artifact.read_bytes() != twin.read_bytes():
                mismatched.append(f"{mode}/{artifact.name}")
    report(
        "9 determinism",
        not mismatched,
        f"{compared} artifacts byte-identical across repeated runs in all five modes"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )


def test_criterion_10_noise_robustness():
    # 1% of the 16-bit dynamic range with the standard 10-frame averaging
    sigma = 0.01 * 65535.0
    base = {"trainer.max_epochs": "200"}
    clean_cfg = load_config(overrides={**base, "camera.read_noise": "0"})
    noisy_cfg = load_config(overrides={**base, "camera.read_noise": repr(sigma)})
    dataset = build_dataset(clean_cfg.bitmaps)
    clean = sum(
        emulate_run(clean_cfg, seed, dataset).trace.converged for seed in range(N_SWEEP_SEEDS)
    )
    noisy = sum(
        emulate_run(noisy_cfg, seed, dataset).trace.converged for seed in range(N_SWEEP_SEEDS)
    )
    clean_rate = clean / N_SWEEP_SEEDS
    noisy_rate = noisy / N_SWEEP_SEEDS
    ok = clean_rate > 0 and noisy_rate >= 0.8 * clean_rate
    report(
        "10 noise-robustness",
        ok,
        f"convergence rate {noisy_rate:.0%} with sigma = 1% dynamic range vs "
        f"{clean_rate:.0%} noiseless (allowed drop 20%)",
    )
