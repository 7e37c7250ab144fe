"""Tests of the benchmark's own helpers: span arithmetic, the tail rule,
failure counting and digest comparison.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run
import tracing
from checks import Tally, compare_digests, tail_percentile
from tracing import Span, Tracer, covered, self_time



def span(start, end, name="s", parent=None, id=0):
    return Span(id, parent, 0, name, start, end)


# -- self time --------------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time(span(2.0, 5.0), []) == 3.0


def test_self_time_back_to_back_children():
    parent = span(0.0, 10.0)
    kids = [span(1.0, 3.0), span(3.0, 6.0), span(6.0, 7.0)]
    assert self_time(parent, kids) == pytest.approx(4.0)


def test_self_time_nested_and_overlapping_children_count_once():
    parent = span(0.0, 10.0)
    # A span nested inside another child covers nothing new.
    kids = [span(1.0, 5.0), span(2.0, 3.0), span(4.0, 6.0)]
    assert self_time(parent, kids) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(span(2.0, 4.0), [span(1.0, 3.0), span(3.5, 9.0)]) == pytest.approx(0.5)


def test_covered_unsorted_intervals():
    assert covered(0.0, 10.0, [(6.0, 8.0), (1.0, 2.0), (7.0, 9.0)]) == pytest.approx(4.0)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer(pass_id=3)
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"calls": 1, "total": r})

    def body():
        return inner(1) + inner(2)

    assert tracer.wrap("outer", body)() == 5
    spans = {s.name: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2
    assert all(s.parent == spans["outer"].id and s.pass_id == 3 for s in inners)
    assert spans["outer"].parent is None
    assert self_time(spans["outer"], inners) == pytest.approx(
        spans["outer"].duration - sum(s.duration for s in inners)
    )
    assert tracer.counts == {"calls": 2, "total": 5}


def test_tracer_keeps_the_span_when_the_call_raises():
    tracer = Tracer(pass_id=0)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer.wrap("ok", lambda: 1)() == 1
    assert tracer.spans[-1].parent is None


# -- tail percentile -----------------------------------------------------------------


def test_tail_percentile_too_few_samples():
    assert tail_percentile([]) is None
    assert tail_percentile(range(19)) is None


def test_tail_percentile_twenty_samples_gives_the_median():
    assert tail_percentile(range(1, 21)) == (50.0, 10)


def test_tail_percentile_picks_the_highest_qualifying_rung():
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)


def test_tail_percentile_counts_samples_strictly_beyond():
    assert tail_percentile([5.0] * 50) is None
    assert tail_percentile([1.0] * 40 + [2.0] * 10) == (75.0, 1.0)


# -- failure counting ---------------------------------------------------------------


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


SUMMARY = {"mode": "sweep-simulate", "converged": 2, "median_steps": 4.5}
SWEEP_CSV = (
    "# schema=optoperceptron.sweep.v1\n"
    "seed,converged,steps\n"
    "10,true,4\n"
    "11,true,5\n"
)


def sweep_dir(tmp_path, csv=SWEEP_CSV, summary=SUMMARY):
    write(tmp_path / "sweep.csv", csv)
    write(tmp_path / "summary.json", json.dumps(summary))
    return tmp_path


def test_check_call_accepts_a_good_call(tmp_path):
    out = sweep_dir(tmp_path)
    problems, parsed = checks.check_call(
        0, json.dumps(SUMMARY) + "\n", out, ("sweep.csv", "summary.json"), [10, 11]
    )
    assert problems == []
    assert [r["seed"] for r in parsed["sweep.csv"]] == ["10", "11"]
    assert run.sweep_consistency(parsed["summary.json"], parsed["sweep.csv"]) == []


@pytest.mark.parametrize(
    "returncode, stdout, csv, seeds, expected",
    [
        (3, json.dumps(SUMMARY), SWEEP_CSV, [10, 11], "exit code 3"),
        (0, json.dumps({"x": 1}), SWEEP_CSV, [10, 11], "stdout JSON differs"),
        (0, "", SWEEP_CSV, [10, 11], "stdout is not one JSON"),
        (0, json.dumps(SUMMARY), SWEEP_CSV, [11, 10], "ascending order"),
        (0, json.dumps(SUMMARY), SWEEP_CSV, [10, 11, 12], "ascending order"),
        (0, json.dumps(SUMMARY), "seed,steps\n10,4\n", [10], "does not parse"),
        (0, json.dumps(SUMMARY), SWEEP_CSV + "12\n", [10, 11, 12], "does not parse"),
    ],
)
def test_check_call_flags_each_failure(tmp_path, returncode, stdout, csv, seeds, expected):
    out = sweep_dir(tmp_path, csv=csv)
    problems, _ = checks.check_call(returncode, stdout, out, ("sweep.csv", "summary.json"), seeds)
    assert any(expected in p for p in problems), problems


def test_check_call_missing_and_malformed_artifacts(tmp_path):
    write(tmp_path / "summary.json", "{not json")
    write(tmp_path / "frame.pgm", "P5\n2 2\n65535\nab")
    problems, parsed = checks.check_call(
        0, "{}", tmp_path, ("summary.json", "frame.pgm", "ledger.json")
    )
    assert any(p.startswith("summary.json: does not parse") for p in problems)
    assert any(p.startswith("frame.pgm: does not parse") for p in problems)
    assert "ledger.json: missing" in problems
    assert parsed == {}


def test_sweep_summary_must_agree_with_its_rows(tmp_path):
    rows = checks.parse_csv(SWEEP_CSV)
    problems = run.sweep_consistency({"converged": 2, "median_steps": 5.0}, rows)
    assert problems == ["summary.json median_steps = 5.0, sweep.csv gives 4.5"]


def test_tally_counts_failed_calls_not_problems():
    tally = Tally()
    tally.record("a", [])
    tally.record("b", ["exit code 2", "summary.json: missing"])
    tally.record("c", [])
    tally.record("d", ["x"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert tally.problems == ["b: exit code 2", "b: summary.json: missing", "d: x"]
    assert Tally().failed_frac == 0.0


# -- digests -------------------------------------------------------------------------


def test_digests_and_comparison(tmp_path):
    write(tmp_path / "a" / "x.txt", "one")
    write(tmp_path / "y.txt", "two")
    first = checks.digests(tmp_path)
    assert sorted(first) == ["a/x.txt", "y.txt"]
    assert compare_digests(first, checks.digests(tmp_path)) == []

    write(tmp_path / "y.txt", "three")
    write(tmp_path / "z.txt", "new")
    (tmp_path / "a" / "x.txt").unlink()
    assert compare_digests(first, checks.digests(tmp_path)) == [
        "a/x.txt: missing, present in the reference pass",
        "y.txt: sha256 differs from the reference pass",
        "z.txt: not present in the reference pass",
    ]


# -- passes --------------------------------------------------------------------------


def test_pass_one_repeats_pass_zero_then_blocks_follow():
    sweep = run.WORKLOADS["emulate-sweep"]
    n = sweep.sweep_seeds
    assert [sweep.first_seed(100, i) for i in range(4)] == [100, 100, 100 + n, 100 + 2 * n]
    single = run.WORKLOADS["single-runs"]
    calls = single.invocations(single.first_seed(7, 2))
    assert len(calls) == len(single.calls) * single.run_seeds
    assert [(key, seed) for key, _, seed in calls[:5]] == [
        ("simulate-11", 11), ("emulate-11", 11), ("energy-11", 11), ("dataset-11", 11),
        ("simulate-12", 12),
    ]


# -- traced run ----------------------------------------------------------------------


def test_traced_run_stops_even_without_enough_runs():
    assert not run.traced_done(5.0, 10.0, 100)
    assert run.traced_done(10.0, 10.0, run.MIN_TRACED_RUNS)
    assert not run.traced_done(10.0, 10.0, 0)
    assert run.traced_done(run.MAX_TRACED_FACTOR * 10.0, 10.0, 0)


def test_combine_passes_takes_medians_and_requires_equal_counts():
    units = {"rig.reads": "count", "rig.read_s": "s"}
    passes = [{"rig.reads": 4, "rig.read_s": t} for t in (3.0, 1.0, 2.0)]
    out, problems = tracing.combine_passes(passes, list(range(1, 21)), units)
    assert problems == []
    assert (out["rig.reads"], out["rig.read_s"]) == (4, 2.0)
    assert (out["runner.run_ms_tail_pct"], out["runner.run_ms_tail"]) == (50.0, 10)

    passes[1]["rig.reads"] = 5
    _, problems = tracing.combine_passes(passes, [1.0], units)
    assert problems == [
        "rig.reads differs between traced passes: [4, 5, 4]",
        "only 1 runs: too few for a tail percentile",
    ]


def test_traced_emulate_run_is_complete_and_restored(tmp_path):
    import optoperceptron.cli as cli
    from optoperceptron import rig, runner, weights

    before = (rig.expose_frames, runner.train, dict(cli.MODE_RUNNERS), rig.Rig.read_sites,
              weights.WeightState.__dict__["from_sums"])
    config = write(tmp_path / "c.txt", "trainer.max_epochs = 1\nrun.seed = 100000\n")
    tracer = Tracer(pass_id=0)
    out = io.StringIO()
    with tracing.installed(tracer, cli, runner, rig, weights), contextlib.redirect_stdout(out):
        assert cli.main(["emulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    after = (rig.expose_frames, runner.train, dict(cli.MODE_RUNNERS), rig.Rig.read_sites,
             weights.WeightState.__dict__["from_sums"])
    assert after == before

    summary = json.loads(out.getvalue())
    assert tracing.completeness(tracer, summary["total_steps"]) == []
    metrics = tracing.pass_metrics(tracer)
    ledger = json.loads((tmp_path / "o" / "ledger.json").read_text())
    assert metrics["rig.reads"] == ledger["read_events"] > 0
    assert metrics["rig.pulses"] == ledger["total_pulses"]
    assert metrics["optics.renders"] == metrics["rig.reads"]
    assert metrics["runner.runs"] == 1 and metrics["config.loads"] == 1
    assert tracing.completeness(tracer, summary["total_steps"] + 1) == [
        f"trace incomplete: trainer.steps = {summary['total_steps']} but summed steps "
        f"in the artifacts = {summary['total_steps'] + 1}"
    ]
