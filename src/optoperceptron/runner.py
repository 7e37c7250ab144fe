"""Run orchestration and plot-ready artifact export.

Every run derives all of its randomness from its config: the master seed,
run.seed, spawns one stream each for learning rates, the shutter, the camera,
and the site parameter draws, in that order, so repeated runs are
byte-identical. A simulate run draws learning rates alone and builds only
their stream; an emulate run builds the other three.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .config import FULL_FRAME_BYTES_PER_PX, RunConfig, check_budget
from .errors import ConfigurationError
from .patterns import CLASSES, Dataset, build_dataset
from .pcg import Pcg64
from .synapse import sample_sites
from .trainer import (
    EVAL_KEYS,
    STEP_KEYS,
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


class Streams(NamedTuple):
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
    from .rig import N_WEIGHT_SITES, EnergyLedger, Rig

    cfg.check_rig()
    ledger = EnergyLedger(cfg.per_read_j(), cfg.per_pulse_j("rig.spot_diameter_um"))
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
        ledger=ledger,
    )


class RunResult(NamedTuple):
    mode: str
    seed: int
    trace: TrainingTrace
    pre_eval: list[tuple] | None  # EVAL_KEYS rows; None when the run skipped its bars
    post_train_eval: list[tuple] | None
    post_test_eval: list[tuple]
    rig: Rig | None = None

    @property
    def test_correct(self) -> int:
        return sum(1 for *_, correct in self.post_test_eval if correct)

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
    # a sampled learning rate is eta_max * (1 - u), and 1 - u can be 2**-53
    if trainer_cfg.eta_fixed is None and trainer_cfg.eta_max * 2.0**-53 == 0.0:
        raise ConfigurationError(
            f"trainer.eta_max {trainer_cfg.eta_max!r} is too small: "
            "the smallest learning rate, eta_max * 2**-53, rounds to 0"
        )
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
    """The one value format of every CSV cell and config echo value; None is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """config.resolved.txt, which load_config reads back: every key sorted, None as none."""
    lines = [f"{key} = {'none' if value is None else _fmt(value)}" for key, value in sorted(cfg.values.items())]
    return "\n".join(["# resolved configuration", *lines]) + "\n"


def json_text(payload) -> str:
    """The one JSON artifact format: sorted keys, two-space indent, final
    newline. It renders the small files; jsontext renders the row-heavy
    artifacts in this format piece by piece."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(schema: str, header: Iterable[str], rows: Sequence[Sequence]) -> str:
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
    """Each step row with its pulses summed and its weights left out."""
    header = [*STEP_KEYS[:-2], "pulses_total"]
    rows = [(*fields, None if pulses is None else sum(pulses)) for *fields, pulses, _ in trace.rows]
    return _csv_text("learning_curve.v1", header, rows)


def bars_csv(results: Sequence[tuple]) -> str:
    return _csv_text("bars.v1", ["index", *EVAL_KEYS], [(i, *r) for i, r in enumerate(results, 1)])


def interleave_post_results(post_train: Sequence[tuple], post_test: Sequence[tuple]) -> list[tuple]:
    """Class blocks, by each row's class r[1], with each held-out pattern appended after its block."""
    ordered = []
    for cls in CLASSES:
        ordered.extend(r for r in post_train if r[1] == cls)
        ordered.extend(r for r in post_test if r[1] == cls)
    return ordered


def atomic_write(path: Path, data: str | bytes | Iterable[str]) -> None:
    """Write data, or each text piece of an iterable in turn, to a temp file
    beside path, then move it into place. The temp file never outlives the
    call: if the write, the pieces or the move fail, it is removed before the
    error propagates, and path keeps what it held."""
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    fh = open(tmp, mode)
    try:
        with fh:
            if isinstance(data, (str, bytes)):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_artifacts(out_dir: Path, cfg: RunConfig, summary: dict, files: Iterable) -> dict:
    """The one artifact writer, atomic per file: config.resolved.txt, each
    (name, payload) of files as it arrives, then summary.json, stamped with
    the package version, last. A payload is what atomic_write takes: text,
    bytes or the text pieces of a rendered artifact. files is read one item
    at a time, so a generator renders each payload only once the one before
    it is on disk. Returns the stamped summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "config.resolved.txt", config_text(cfg))
    for name, payload in files:
        atomic_write(out_dir / name, payload)
    summary["version"] = __version__
    atomic_write(out_dir / "summary.json", json_text(summary))
    return summary


def run_files(result: RunResult, cfg: RunConfig) -> Iterator[tuple[str, object]]:
    """(name, payload) of every artifact of a simulate or emulate run but the
    summary, one at a time, so no two large payloads are held at once. The
    row-heavy JSON artifacts come as the text pieces jsontext renders from
    the run's records, which only these runs and energy's load."""
    yield "bars_pre.csv", bars_csv(result.pre_eval)
    yield "bars_post.csv", bars_csv(
        interleave_post_results(result.post_train_eval, result.post_test_eval)
    )
    if cfg["run.trace_verbosity"] >= 1:
        yield "learning_curve.csv", learning_curve_csv(result.trace)
        from .jsontext import trace_pieces

        yield "trace.json", trace_pieces(result.trace)
    rig = result.rig
    if rig is None:
        return
    from .jsontext import ledger_pieces, snapshots_pieces, state_pieces
    from .optics import pgm_image
    from .rig import SITE_LABELS

    yield "ledger.json", ledger_pieces(rig.ledger)
    yield "ledger.txt", rig.ledger.totals().summary_line() + "\n"
    yield "weight_state.json", state_pieces(rig.state)
    yield "site_params.json", json_text([
        {
            "site": SITE_LABELS[i],
            "dead_zone_pulses": p.dead_zone_pulses,
            "saturation_pulses": p.saturation_pulses,
            "background_gain": p.background_gain,
            "curve": p.curve,
        }
        for i, p in enumerate(s.params for s in rig.sites)
    ])
    if rig.snapshots:
        yield "weight_snapshots.json", snapshots_pieces(rig.snapshots)
    if cfg["run.dump_frames"]:
        image, sidecar = pgm_image(*rig.full_frame(), rig.sensor_camera)
        yield "sample_final.pgm", image
        yield "sample_final.pgm.json", json_text(sidecar)


def run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    result = simulate_run(cfg, cfg["run.seed"], build_dataset(cfg.bitmaps))
    return write_artifacts(out_dir, cfg, result.summary(), run_files(result, cfg))


def run_emulate(cfg: RunConfig, out_dir: Path) -> dict:
    if cfg["run.dump_frames"]:  # only emulate renders the full frame, for sample_final.pgm
        w, h = cfg["camera.width_px"], cfg["camera.height_px"]
        check_budget(f"the run.dump_frames render of the {w}x{h} px sensor "
                     "(camera.width_px x camera.height_px)", FULL_FRAME_BYTES_PER_PX * w * h)
    result = emulate_run(cfg, cfg["run.seed"], build_dataset(cfg.bitmaps))
    return write_artifacts(out_dir, cfg, result.summary(), run_files(result, cfg))


def run_dataset(cfg: RunConfig, out_dir: Path) -> dict:
    dataset = build_dataset(cfg.bitmaps)
    summary = {
        "mode": "dataset",
        "patterns": len(dataset.training) + len(dataset.testing),
        "training": len(dataset.training),
        "testing": len(dataset.testing),
    }
    return write_artifacts(out_dir, cfg, summary, [("dataset.csv", dataset_csv(dataset))])


def run_energy(cfg: RunConfig, out_dir: Path) -> dict:
    """Per-pulse write energies and the energy ledger of the emulate run: its
    ledger.json is byte-identical to that of emulate at the same config.
    Energy writes no bars, and bar evaluations read no sites, so it skips them."""
    small_um, large_um = cfg["energy.spot_small_um"], cfg["energy.spot_large_um"]
    if small_um > large_um:
        raise ConfigurationError("energy.spot_small_um must be <= energy.spot_large_um")
    large = cfg.per_pulse_j("energy.spot_large_um")
    small = cfg.per_pulse_j("energy.spot_small_um")
    result = emulate_run(cfg, cfg["run.seed"], build_dataset(cfg.bitmaps), bars=False)
    ledger = result.rig.ledger
    totals = ledger.totals()
    summary = {
        "mode": "energy",
        "seed": cfg["run.seed"],
        "per_pulse_spot_small_pj": small * 1e12,
        "per_pulse_spot_large_pj": large * 1e12,
        "per_pulse_network_spot_pj": ledger.per_pulse_j * 1e12,
        "training_steps": result.trace.total_steps,
        "total_pulses": totals.total_pulses,
        "write_energy_nj": totals.write_energy_j * 1e9,
        "read_events": totals.read_events,
        "read_energy_nj": totals.read_energy_j * 1e9,
    }
    energy_txt = (
        f"per-pulse energy: {small * 1e12:.1f} pJ ({small_um} um spot), "
        f"{large * 1e12:.1f} pJ ({large_um} um spot)\n"
        f"ledger: {totals.summary_line()}\n"
    )
    from .jsontext import ledger_pieces

    files = [("ledger.json", ledger_pieces(ledger)), ("energy.txt", energy_txt)]
    return write_artifacts(out_dir, cfg, summary, files)


# Each sweep.csv column and the key of the run summary that it shows.
SWEEP_COLUMNS = {
    "seed": "seed", "converged": "converged", "steps": "total_steps", "epochs": "epochs",
    "threshold_raises": "threshold_raises", "test_correct": "test_correct",
    "test_total": "test_total", "final_threshold": "final_threshold",
}


def median(values: Sequence[int]) -> float:
    """float(statistics.median(values)) of a non-empty list of ints, without
    loading statistics and the fractions, decimal and random it imports."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def run_sweep(cfg: RunConfig, out_dir: Path) -> dict:
    """One sweep.csv row per seed, base_seed + i, from its run summary. A row
    needs the trace and the held-out evaluation only, so each run skips its bars."""
    mode, seed = cfg["sweep.mode"], cfg["run.seed"]
    runner = simulate_run if mode == "simulate" else emulate_run
    dataset = build_dataset(cfg.bitmaps)
    rows = []
    converged_steps = []
    for i in range(cfg["sweep.seeds"]):
        run = runner(cfg, seed + i, dataset, bars=False).summary()
        rows.append([run[key] for key in SWEEP_COLUMNS.values()])
        if run["converged"]:
            converged_steps.append(run["total_steps"])
    summary = {
        "mode": f"sweep-{mode}",
        "base_seed": seed,
        "seeds": cfg["sweep.seeds"],
        "converged": len(converged_steps),
        "median_steps": median(converged_steps) if converged_steps else None,
    }
    return write_artifacts(out_dir, cfg, summary, [("sweep.csv", _csv_text("sweep.v1", SWEEP_COLUMNS, rows))])


# Each is called as runner(cfg, out_dir) and seeds from cfg["run.seed"], which its echo writes.
MODE_RUNNERS = {
    "simulate": run_simulate,
    "emulate": run_emulate,
    "dataset": run_dataset,
    "energy": run_energy,
    "sweep": run_sweep,
}
