"""Spans and counters recorded around calls into the optoperceptron modules.

The wrappers are installed from here, never from the package: each name is
replaced where the calling module looks it up (``rig.expose_frames``, not
``optics.expose_frames``, because ``rig.py`` imports it by name), and
restored afterwards. Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from statistics import median
from typing import NamedTuple

from checks import tail_percentile


class Span(NamedTuple):
    id: int
    parent: int | None
    pass_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call; `count(args, kwargs, result)`
        returns counter increments made at the same boundary."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, self.pass_id, name, start, end))
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counts[key] += n
            return result

        return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_packet(args, kwargs, result):
    return {"packets": 1, "pulses": _arg(args, kwargs, 2, "pulse_count")}


def _count_render(args, kwargs, result):
    n_frames = _arg(args, kwargs, 0, "n_frames")
    camera = _arg(args, kwargs, 3, "camera")
    return {"renders": 1, "frames": n_frames, "px": n_frames * camera.height * camera.width}


def _count_train(args, kwargs, result):
    return {
        "steps": result.total_steps,
        "updates": sum(1 for s in result.steps if s.action != "accept"),
        "raises": result.threshold_raises,
    }


def _count_emulate(args, kwargs, result):
    return {
        "runs": 1,
        "ledger_reads": result.rig.ledger.read_events,
        "ledger_packets": len(result.rig.ledger.write_events),
        "rig_events": len(result.rig.events),
    }


def _count_reads(args, kwargs, result):
    return {"reads": len(result)}


def _count_state(args, kwargs, result):
    return {"states": 1, "clamps": result.clamp_diagnostics.total}


def _count(key):
    return lambda args, kwargs, result: {key: 1}


# Rig methods that read the camera, and the ones that write with the laser;
# a write span's time excludes its read children.
RIG_READS = ("capture_backgrounds", "read_sites")
RIG_WRITES = ("apply_learning_update", "initialize_network", "reinitialize_weights")
# `label` is a tuple lookup called several times per packet; a span on it
# would cost more than the work it measures, so it alone stays unwrapped.
RIG_PUBLIC = RIG_READS + RIG_WRITES + ("weight_state", "full_frame", "site_position_um")


@contextlib.contextmanager
def installed(tracer: Tracer, cli, runner, rig, weights):
    """Wrap every traced name for the duration of the block."""
    restore = []

    def patch(owner, attr, name, count=None):
        # A name the package no longer has is left out: its counts read 0,
        # and the completeness check catches any that the ledger still sees.
        original = owner.__dict__.get(attr)
        if original is None:
            return
        restore.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, original.__func__, count)))
        else:
            setattr(owner, attr, tracer.wrap(name, original, count))

    patch(cli, "load_config", "config.load_config", _count("loads"))
    patch(runner, "build_dataset", "patterns.build_dataset", _count("builds"))
    patch(runner, "sample_sites", "synapse.sample_sites")
    patch(runner, "make_streams", "runner.make_streams")
    patch(runner, "build_rig", "runner.build_rig")
    patch(runner, "train", "trainer.train", _count_train)
    patch(runner, "evaluate_patterns", "trainer.evaluate_patterns")
    patch(runner, "simulate_run", "runner.simulate_run", _count("runs"))
    patch(runner, "emulate_run", "runner.emulate_run", _count_emulate)
    patch(rig, "apply_packet", "synapse.apply_packet", _count_packet)
    patch(rig, "expose_frames", "optics.expose_frames", _count_render)
    patch(rig, "average_frames", "optics.average_frames")
    patch(rig, "integrate_roi", "optics.integrate_roi")
    reads = set(RIG_READS)
    for method in RIG_PUBLIC:
        patch(rig.Rig, method, f"rig.{method}", _count_reads if method in reads else None)
    patch(weights.WeightState, "from_sums", "weights.from_sums", _count_state)
    # cli.MODE_RUNNERS holds direct references to the run_* functions.
    modes = cli.MODE_RUNNERS
    originals = dict(modes)
    for mode, fn in originals.items():
        modes[mode] = tracer.wrap(f"cli.run_{mode}", fn)
    try:
        yield tracer
    finally:
        modes.update(originals)
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- span arithmetic -------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus what its child spans cover."""
    return span.duration - covered(span.start, span.end, [(c.start, c.end) for c in children])


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


# -- per-layer metrics -------------------------------------------------------------

# Per-layer metrics in these units count work done: they repeat exactly
# across passes and runs.
EXACT_UNITS = ("count", "bytes", "ratio")


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (host seconds)."""
    spans = tracer.spans
    c = tracer.counts
    kids = children_of(spans)
    incl: dict[str, float] = defaultdict(float)
    for s in spans:
        incl[s.name] += s.duration
    train_self = sum(self_time(s, kids[s.id]) for s in spans if s.name == "trainer.train")
    artifacts = sum(self_time(s, kids[s.id]) for s in spans if s.name.startswith("cli.run_"))
    read_names = {f"rig.{m}" for m in RIG_READS} | {"rig.weight_state"}
    write_names = {f"rig.{m}" for m in RIG_WRITES}
    write_s = sum(
        self_time(s, [k for k in kids[s.id] if k.name in read_names])
        for s in spans
        if s.name in write_names
    )
    read_s = sum(incl[f"rig.{m}"] for m in RIG_READS)
    steps = c["steps"]
    return {
        "config.loads": c["loads"],
        "config.load_s": incl["config.load_config"],
        "patterns.builds": c["builds"],
        "patterns.build_s": incl["patterns.build_dataset"],
        "synapse.packets": c["packets"],
        "synapse.apply_s": incl["synapse.apply_packet"],
        "synapse.sample_s": incl["synapse.sample_sites"],
        "optics.renders": c["renders"],
        "optics.frames": c["frames"],
        "optics.px": c["px"],
        "optics.expose_s": incl["optics.expose_frames"],
        "optics.average_s": incl["optics.average_frames"],
        "optics.integrate_s": incl["optics.integrate_roi"],
        "weights.states": c["states"],
        "weights.from_sums_s": incl["weights.from_sums"],
        "weights.clamps": c["clamps"],
        "trainer.steps": steps,
        "trainer.updates": c["updates"],
        "trainer.accept_frac": (steps - c["updates"]) / steps if steps else 0.0,
        "trainer.raises": c["raises"],
        "trainer.train_self_s": train_self,
        "trainer.eval_s": incl["trainer.evaluate_patterns"],
        "rig.reads": c["reads"],
        "rig.read_s": read_s,
        "rig.us_per_read": 1e6 * read_s / c["reads"] if c["reads"] else 0.0,
        "rig.packets": c["packets"],
        "rig.pulses": c["pulses"],
        "rig.write_s": write_s,
        "rig.us_per_packet": 1e6 * write_s / c["packets"] if c["packets"] else 0.0,
        "rig.events": c["rig_events"],
        "rig.full_frame_s": incl["rig.full_frame"],
        "runner.runs": c["runs"],
        "runner.setup_run_s": incl["runner.make_streams"] + incl["runner.build_rig"],
        "runner.artifacts_s": artifacts,
    }


def run_times_ms(tracers) -> list[float]:
    names = ("runner.simulate_run", "runner.emulate_run")
    return [1e3 * s.duration for t in tracers for s in t.spans if s.name in names]


def combine_passes(per_pass: list[dict], run_ms: list[float], units: dict[str, str]) -> tuple[dict, list[str]]:
    """Medians of the timings over traced passes; counts must agree exactly.

    `units` maps each per-layer metric to its unit (BENCHMARK.json).
    """
    problems = []
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units[name] in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    out["runner.run_ms_p50"] = median(run_ms) if run_ms else 0.0
    tail = tail_percentile(run_ms)
    if tail is None:
        problems.append(f"only {len(run_ms)} runs: too few for a tail percentile")
        tail = (0.0, 0.0)
    out["runner.run_ms_tail_pct"], out["runner.run_ms_tail"] = tail
    return out, problems


def completeness(tracer: Tracer, steps_in_artifacts: int) -> list[str]:
    """Wrapper counts that disagree with the program's own counts.

    A refactor that routes around a wrapped name shows up here instead of
    reading as a speed-up.
    """
    c = tracer.counts
    pairs = [
        ("rig.reads", c["reads"], "summed ledger.read_events", c["ledger_reads"]),
        ("rig.packets", c["packets"], "summed len(ledger.write_events)", c["ledger_packets"]),
        ("trainer.steps", c["steps"], "summed steps in the artifacts", steps_in_artifacts),
    ]
    return [
        f"trace incomplete: {name} = {ours} but {what} = {theirs}"
        for name, ours, what, theirs in pairs
        if ours != theirs
    ]


def write_spans(tracers, path) -> None:
    """Write every span as CSV: id, parent, pass, name, start, end."""
    with open(path, "w") as fh:
        fh.write("id,parent,pass,name,start,end\n")
        for t in tracers:
            for s in t.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{parent},{s.pass_id},{s.name},{s.start!r},{s.end!r}\n")
