"""Run orchestration and plot-ready artifact export.

Every run derives all of its randomness from (config, seed): the master
seed spawns one stream each for learning rates, the shutter, the camera,
and the site parameter draws, in that order, so repeated runs are
byte-identical. A simulate run draws learning rates alone and builds only
their stream; an emulate run builds the other three.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import __version__
from .atomic import atomic_write, write_json
from .config import RunConfig
from .patterns import CLASSES, Dataset, build_dataset
from .pcg import Pcg64
from .synapse import sample_sites
from .trainer import (
    EvalResult,
    TrainerConfig,
    TrainingTrace,
    VectorBackend,
    WeightBackend,
    evaluate_patterns,
    train,
)

if TYPE_CHECKING:  # numpy, rig and optics load only where the rig draws or renders
    import numpy as np

    from .rig import Rig

SCHEMA_PREFIX = "optoperceptron"


@dataclass
class Streams:
    """The rig's streams: children 1-3 of the run seed."""

    shutter: np.random.Generator
    camera: np.random.Generator
    sites: np.random.Generator


def eta_stream(seed: int) -> Pcg64:
    """The learning-rate stream: child 0 of the run seed, drawn without numpy
    as np.random.default_rng(SeedSequence(seed).spawn(1)[0]) draws it."""
    return Pcg64(seed)


def make_streams(seed: int) -> Streams:
    """Children 1-3 of the run seed; child 0 is eta_stream's, left unbuilt."""
    import numpy as np

    _, shutter_ss, camera_ss, sites_ss = np.random.SeedSequence(seed).spawn(4)
    return Streams(
        shutter=np.random.default_rng(shutter_ss),
        camera=np.random.default_rng(camera_ss),
        sites=np.random.default_rng(sites_ss),
    )


def build_rig(cfg: RunConfig, streams: Streams) -> Rig:
    from .rig import N_WEIGHT_SITES, Rig

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
        per_pulse_write_j=cfg.per_pulse_j(cfg["rig.spot_diameter_um"]),
        per_read_j=cfg.per_read_j(),
    )


@dataclass
class RunResult:
    mode: str
    seed: int
    trace: TrainingTrace
    pre_eval: list[EvalResult] | None  # None when the run skipped its bars
    post_train_eval: list[EvalResult] | None
    post_test_eval: list[EvalResult]
    rig: Rig | None = None

    @property
    def test_correct(self) -> int:
        return sum(1 for r in self.post_test_eval if r.correct)

    def summary(self) -> dict:
        return {
            **self.trace.summary(),
            "mode": self.mode,
            "seed": self.seed,
            "test_correct": self.test_correct,
            "test_total": len(self.post_test_eval),
        }


def simulate_run(cfg: RunConfig, seed: int, dataset: Dataset, bars: bool = True) -> RunResult:
    trainer_cfg = cfg.trainer_config()
    backend = VectorBackend(trainer_cfg, rng=eta_stream(seed))
    return _train_and_evaluate("simulate", seed, trainer_cfg, backend, dataset, bars)


def emulate_run(cfg: RunConfig, seed: int, dataset: Dataset, bars: bool = True) -> RunResult:
    trainer_cfg = cfg.trainer_config()
    rig = build_rig(cfg, make_streams(seed))
    if bars and cfg["run.trace_verbosity"] >= 2:
        rig.snapshots = []
    rig.initialize_network()
    return _train_and_evaluate("emulate", seed, trainer_cfg, rig, dataset, bars, rig)


def _train_and_evaluate(
    mode: str, seed: int, trainer_cfg: TrainerConfig, backend: WeightBackend,
    dataset: Dataset, bars: bool, rig: Rig | None = None,
) -> RunResult:
    """The run body of both modes. Pre-training bars are judged against the
    backend's starting threshold, post-training ones against the trained
    threshold; bars=False skips both evaluations of the training patterns,
    which only the bars artifacts show. The held-out evaluation always runs.
    train and evaluate_patterns are looked up by this module's names, which
    the benchmark's tracer wraps."""
    target = trainer_cfg.target_class
    pre = post_train = None
    if bars:
        pre = evaluate_patterns(backend, dataset.training, target, backend.threshold())
    trace = train(dataset.training, trainer_cfg, backend)
    final = trace.final_threshold
    if bars:
        post_train = evaluate_patterns(backend, dataset.training, target, final)
    post_test = evaluate_patterns(backend, dataset.testing, target, final)
    return RunResult(mode, seed, trace, pre, post_train, post_test, rig)


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


def write_artifacts(out_dir: Path, cfg: RunConfig, summary: dict, files: Iterable) -> dict:
    """The one artifact writer, atomic per file: config.resolved.txt, each
    (name, payload) of files (a .json name as JSON), then summary.json,
    stamped with the package version, last. Returns the stamped summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", cfg.to_text())
    for name, payload in files:
        if name.endswith(".json"):
            write_json(out_dir / name, payload)
        else:
            atomic_write(out_dir / name, payload)
    summary["version"] = __version__
    write_json(out_dir / "summary.json", summary)
    return summary


def run_files(result: RunResult, cfg: RunConfig) -> Iterator[tuple[str, object]]:
    """(name, payload) of every artifact of a simulate or emulate run but the
    summary, one at a time, so no two large payloads are held at once."""
    yield "bars_pre.csv", bars_csv(result.pre_eval)
    yield "bars_post.csv", bars_csv(
        interleave_post_results(result.post_train_eval, result.post_test_eval)
    )
    if cfg["run.trace_verbosity"] >= 1:
        yield "learning_curve.csv", learning_curve_csv(result.trace)
        yield "trace.json", result.trace.to_json_dict()
    rig = result.rig
    if rig is None:
        return
    from .optics import pgm_image
    from .rig import SITE_LABELS

    yield "ledger.json", rig.ledger.to_json_dict()
    yield "ledger.txt", rig.ledger.summary_line() + "\n"
    yield "weight_state.json", rig.state.to_json_dict()
    yield "site_params.json", [
        {
            "site": SITE_LABELS[i],
            "dead_zone_pulses": p.dead_zone_pulses,
            "saturation_pulses": p.saturation_pulses,
            "background_gain": p.background_gain,
            "curve": p.curve,
        }
        for i, p in enumerate(s.params for s in rig.sites)
    ]
    if rig.snapshots:
        yield "weight_snapshots.json", rig.snapshots
    if cfg["run.dump_frames"]:
        image, sidecar = pgm_image(*rig.full_frame(), rig.sensor_camera)
        yield "sample_final.pgm", image
        yield "sample_final.pgm.json", sidecar


def run_simulate(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    result = simulate_run(cfg, seed, build_dataset(cfg.bitmaps))
    return write_artifacts(out_dir, cfg, result.summary(), run_files(result, cfg))


def run_emulate(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    result = emulate_run(cfg, seed, build_dataset(cfg.bitmaps))
    return write_artifacts(out_dir, cfg, result.summary(), run_files(result, cfg))


def run_dataset(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    dataset = build_dataset(cfg.bitmaps)
    summary = {
        "mode": "dataset",
        "patterns": len(dataset.training) + len(dataset.testing),
        "training": len(dataset.training),
        "testing": len(dataset.testing),
    }
    return write_artifacts(out_dir, cfg, summary, [("dataset.csv", dataset_csv(dataset))])


def run_energy(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    """Per-pulse write energies and the energy ledger of the emulate run: its
    ledger.json is byte-identical to that of emulate at the same (config, seed).
    Energy writes no bars, and bar evaluations read no sites, so it skips them."""
    result = emulate_run(cfg, seed, build_dataset(cfg.bitmaps), bars=False)
    ledger = result.rig.ledger
    small = cfg.per_pulse_j(cfg["energy.spot_small_um"])
    large = cfg.per_pulse_j(cfg["energy.spot_large_um"])
    summary = {
        "mode": "energy",
        "seed": seed,
        "per_pulse_spot_small_pj": small * 1e12,
        "per_pulse_spot_large_pj": large * 1e12,
        "per_pulse_network_spot_pj": cfg.per_pulse_j(cfg["rig.spot_diameter_um"]) * 1e12,
        "training_steps": result.trace.total_steps,
        "total_pulses": ledger.total_pulses,
        "write_energy_nj": ledger.write_energy_j * 1e9,
        "read_events": ledger.read_events,
        "read_energy_nj": ledger.read_energy_j * 1e9,
    }
    energy_txt = (
        f"per-pulse energy: {small * 1e12:.1f} pJ ({cfg['energy.spot_small_um']} um spot), "
        f"{large * 1e12:.1f} pJ ({cfg['energy.spot_large_um']} um spot)\n"
        f"ledger: {ledger.summary_line()}\n"
    )
    files = [("ledger.json", ledger.to_json_dict()), ("energy.txt", energy_txt)]
    return write_artifacts(out_dir, cfg, summary, files)


def run_sweep(cfg: RunConfig, out_dir: Path, seed: int) -> dict:
    """Per-seed convergence summaries; seeds are base_seed + i. A row needs
    the trace and the held-out evaluation only, so each run skips its bars."""
    mode = cfg["sweep.mode"]
    runner = simulate_run if mode == "simulate" else emulate_run
    dataset = build_dataset(cfg.bitmaps)
    rows = []
    converged_steps = []
    for i in range(cfg["sweep.seeds"]):
        run_seed = seed + i
        result = runner(cfg, run_seed, dataset, bars=False)
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
    summary = {
        "mode": f"sweep-{mode}",
        "base_seed": seed,
        "seeds": cfg["sweep.seeds"],
        "converged": len(converged_steps),
        "median_steps": float(median(converged_steps)) if converged_steps else None,
    }
    return write_artifacts(out_dir, cfg, summary, [("sweep.csv", sweep_csv(rows))])


MODE_RUNNERS = {
    "simulate": run_simulate,
    "emulate": run_emulate,
    "dataset": run_dataset,
    "energy": run_energy,
    "sweep": run_sweep,
}
