"""Run orchestration and plot-ready artifact export.

Every run derives all of its randomness from (config, seed): the master
seed spawns one stream each for learning rates, the shutter, the camera,
and the site parameter draws, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .atomic import atomic_write, write_json
from .config import RunConfig
from .patterns import CLASSES, Dataset, build_dataset
from .rig import N_WEIGHT_SITES, Rig, RigBackend, energy_per_pulse
from .optics import write_pgm
from .synapse import sample_sites
from .trainer import (
    EvalResult,
    TrainingTrace,
    VectorBackend,
    evaluate_patterns,
    train,
)

SCHEMA_PREFIX = "optoperceptron"


@dataclass
class Streams:
    eta: np.random.Generator
    shutter: np.random.Generator
    camera: np.random.Generator
    sites: np.random.SeedSequence


def make_streams(seed: int) -> Streams:
    eta_ss, shutter_ss, camera_ss, sites_ss = np.random.SeedSequence(seed).spawn(4)
    return Streams(
        eta=np.random.default_rng(eta_ss),
        shutter=np.random.default_rng(shutter_ss),
        camera=np.random.default_rng(camera_ss),
        sites=sites_ss,
    )


def build_rig(cfg: RunConfig, streams: Streams) -> Rig:
    site_params = sample_sites(
        streams.sites,
        N_WEIGHT_SITES + 1,
        cfg["synapse.site_spread"],
        nominal=cfg.nominal_site_params(),
    )
    return Rig(
        site_params=site_params,
        constants=cfg.optical_constants(),
        camera=cfg.camera_config(),
        rig_config=cfg.rig_config(),
        shutter=cfg.shutter_model(),
        shutter_rng=streams.shutter,
        camera_rng=streams.camera,
        per_pulse_write_j=cfg.per_pulse_write_j(),
        per_read_j=cfg.per_read_j(),
    )


@dataclass
class RunResult:
    mode: str
    seed: int
    dataset: Dataset
    trace: TrainingTrace
    pre_eval: list[EvalResult]
    post_train_eval: list[EvalResult]
    post_test_eval: list[EvalResult]
    rig: Rig | None = None
    backend: RigBackend | None = None

    @property
    def test_correct(self) -> int:
        return sum(1 for r in self.post_test_eval if r.correct)

    def summary(self) -> dict:
        s = self.trace.summary()
        s.update(
            {
                "mode": self.mode,
                "seed": self.seed,
                "test_correct": self.test_correct,
                "test_total": len(self.post_test_eval),
                "version": __version__,
            }
        )
        return s


def simulate_run(cfg: RunConfig, seed: int, dataset: Dataset) -> RunResult:
    streams = make_streams(seed)
    trainer_cfg = cfg.trainer_config()
    backend = VectorBackend(trainer_cfg, rng=streams.eta)
    pre = evaluate_patterns(backend, dataset.training, trainer_cfg.target_class)
    trace = train(dataset.training, trainer_cfg, backend)
    post_train = evaluate_patterns(backend, dataset.training, trainer_cfg.target_class)
    post_test = evaluate_patterns(backend, dataset.testing, trainer_cfg.target_class)
    return RunResult("simulate", seed, dataset, trace, pre, post_train, post_test)


def emulate_run(cfg: RunConfig, seed: int, dataset: Dataset) -> RunResult:
    streams = make_streams(seed)
    trainer_cfg = cfg.trainer_config()
    rig = build_rig(cfg, streams)
    backend = RigBackend(rig, trainer_cfg, keep_snapshots=cfg["run.trace_verbosity"] >= 2)
    pre = evaluate_patterns(backend, dataset.training, trainer_cfg.target_class)
    trace = train(dataset.training, trainer_cfg, backend)
    post_train = evaluate_patterns(backend, dataset.training, trainer_cfg.target_class)
    post_test = evaluate_patterns(backend, dataset.testing, trainer_cfg.target_class)
    return RunResult(
        "emulate", seed, dataset, trace, pre, post_train, post_test,
        rig=rig, backend=backend,
    )


# -- artifact writing ---------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(schema: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [f"# schema={SCHEMA_PREFIX}.{schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def dataset_csv(dataset: Dataset) -> str:
    header = ["pattern_id", "class", "variant", "role"] + [f"x{i}" for i in range(1, 10)]
    ordered = []
    for cls in CLASSES:
        block = [p for p in dataset.training + dataset.testing if p.class_label == cls]
        block.sort(key=lambda p: p.variant_index)
        ordered.extend(block)
    rows = [
        [p.pattern_id, p.class_label, p.variant_index, p.role, *p.inputs]
        for p in ordered
    ]
    return _csv_text("dataset.v1", header, rows)


def learning_curve_csv(trace: TrainingTrace) -> str:
    header = ["step", "pattern_id", "class", "output", "threshold", "action", "eta", "pulses_total"]
    rows = [
        [
            s.step,
            s.pattern_id,
            s.class_label,
            s.output,
            s.threshold,
            s.action,
            s.eta,
            sum(s.pulses) if s.pulses is not None else None,
        ]
        for s in trace.steps
    ]
    return _csv_text("learning_curve.v1", header, rows)


def bars_csv(results: Sequence[EvalResult]) -> str:
    header = ["index", "pattern_id", "class", "role", "output", "threshold", "desired_above", "correct"]
    rows = [
        [i + 1, r.pattern_id, r.class_label, r.role, r.output, r.threshold, r.desired_above, r.correct]
        for i, r in enumerate(results)
    ]
    return _csv_text("bars.v1", header, rows)


def interleave_post_results(
    post_train: Sequence[EvalResult], post_test: Sequence[EvalResult]
) -> list[EvalResult]:
    """Class blocks with each held-out pattern appended after its block."""
    ordered = []
    for cls in CLASSES:
        ordered.extend(r for r in post_train if r.class_label == cls)
        ordered.extend(r for r in post_test if r.class_label == cls)
    return ordered


def sweep_csv(rows: Sequence[Sequence]) -> str:
    header = [
        "seed", "converged", "steps", "epochs", "threshold_raises",
        "test_correct", "test_total", "final_threshold",
    ]
    return _csv_text("sweep.v1", header, rows)


def write_run_artifacts(result: RunResult, cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", cfg.to_text())
    write_json(out_dir / "summary.json", result.summary())
    atomic_write(out_dir / "bars_pre.csv", bars_csv(result.pre_eval))
    atomic_write(
        out_dir / "bars_post.csv",
        bars_csv(interleave_post_results(result.post_train_eval, result.post_test_eval)),
    )
    if cfg["run.trace_verbosity"] >= 1:
        atomic_write(out_dir / "learning_curve.csv", learning_curve_csv(result.trace))
        write_json(out_dir / "trace.json", result.trace.to_json_dict())
    if result.rig is not None:
        write_json(out_dir / "ledger.json", result.rig.ledger.to_json_dict())
        atomic_write(out_dir / "ledger.txt", result.rig.ledger.summary_line() + "\n")
        write_json(out_dir / "weight_state.json", result.rig.weight_state().to_json_dict())
        site_params = [
            {
                "site": result.rig.label(i),
                "dead_zone_pulses": p.dead_zone_pulses,
                "saturation_pulses": p.saturation_pulses,
                "background_gain": p.background_gain,
                "curve": p.curve,
            }
            for i, p in enumerate(s.params for s in result.rig.sites)
        ]
        write_json(out_dir / "site_params.json", site_params)
        if result.backend is not None and result.backend.snapshots:
            write_json(out_dir / "weight_snapshots.json", result.backend.snapshots)
        if cfg["run.dump_frames"]:
            write_pgm(result.rig.full_frame(), out_dir / "sample_final.pgm")


def run_simulate(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    result = simulate_run(cfg, seed, build_dataset(cfg.bitmaps))
    write_run_artifacts(result, cfg, out_dir)
    return result.summary()


def run_emulate(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    result = emulate_run(cfg, seed, build_dataset(cfg.bitmaps))
    write_run_artifacts(result, cfg, out_dir)
    return result.summary()


def run_dataset(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    dataset = build_dataset(cfg.bitmaps)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", cfg.to_text())
    atomic_write(out_dir / "dataset.csv", dataset_csv(dataset))
    summary = {
        "mode": "dataset",
        "patterns": len(dataset.training) + len(dataset.testing),
        "training": len(dataset.training),
        "testing": len(dataset.testing),
        "version": __version__,
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def run_energy(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    """Per-pulse write energies and the energy ledger of the emulate run: its
    ledger.json is byte-identical to that of emulate at the same (config, seed)."""
    result = emulate_run(cfg, seed, build_dataset(cfg.bitmaps))
    ledger = result.rig.ledger
    beam = cfg.energy_beam()
    small = energy_per_pulse(beam, cfg["energy.spot_small_um"])
    large = energy_per_pulse(beam, cfg["energy.spot_large_um"])
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", cfg.to_text())
    write_json(out_dir / "ledger.json", ledger.to_json_dict())
    summary = {
        "mode": "energy",
        "seed": seed,
        "per_pulse_spot_small_pj": small * 1e12,
        "per_pulse_spot_large_pj": large * 1e12,
        "per_pulse_network_spot_pj": cfg.per_pulse_write_j() * 1e12,
        "training_steps": result.trace.total_steps,
        "total_pulses": ledger.total_pulses,
        "write_energy_nj": ledger.write_energy_j * 1e9,
        "read_events": ledger.read_events,
        "read_energy_nj": ledger.read_energy_j * 1e9,
        "version": __version__,
    }
    write_json(out_dir / "summary.json", summary)
    atomic_write(
        out_dir / "energy.txt",
        (
            f"per-pulse energy: {small * 1e12:.1f} pJ ({cfg['energy.spot_small_um']} um spot), "
            f"{large * 1e12:.1f} pJ ({cfg['energy.spot_large_um']} um spot)\n"
            f"ledger: {ledger.summary_line()}\n"
        ),
    )
    return summary


def run_sweep(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    """Per-seed convergence summaries; seeds are base_seed + i."""
    mode = cfg["sweep.mode"]
    runner = simulate_run if mode == "simulate" else emulate_run
    dataset = build_dataset(cfg.bitmaps)
    rows = []
    converged_steps = []
    for i in range(cfg["sweep.seeds"]):
        run_seed = seed + i
        result = runner(cfg, run_seed, dataset)
        rows.append(
            [
                run_seed,
                result.trace.converged,
                result.trace.total_steps,
                result.trace.epochs,
                result.trace.threshold_raises,
                result.test_correct,
                len(result.post_test_eval),
                result.trace.final_threshold,
            ]
        )
        if result.trace.converged:
            converged_steps.append(result.trace.total_steps)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", cfg.to_text())
    atomic_write(out_dir / "sweep.csv", sweep_csv(rows))
    summary = {
        "mode": f"sweep-{mode}",
        "base_seed": seed,
        "seeds": cfg["sweep.seeds"],
        "converged": len(converged_steps),
        "median_steps": float(np.median(converged_steps)) if converged_steps else None,
        "version": __version__,
    }
    write_json(out_dir / "summary.json", summary)
    return summary


MODE_RUNNERS = {
    "simulate": run_simulate,
    "emulate": run_emulate,
    "dataset": run_dataset,
    "energy": run_energy,
    "sweep": run_sweep,
}
