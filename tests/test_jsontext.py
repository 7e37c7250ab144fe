"""The streamed JSON artifacts: each renderer's text is byte for byte the
json.dumps(payload, sort_keys=True, indent=2) + "\\n" of the payload its
records stand for, and writing one holds no more than a few rows at a time."""

import json
import math
import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.config import load_config
from optoperceptron.jsontext import document, ledger_pieces, snapshots_pieces, state_pieces, trace_pieces
from optoperceptron.patterns import build_dataset
from optoperceptron.rig import EnergyLedger
from optoperceptron.runner import atomic_write, emulate_run, json_text, run_files
from optoperceptron.trainer import RAISE_KEYS, STEP_KEYS, TrainingTrace
from optoperceptron.weights import ClampDiagnostics, WeightState

# -- the payloads the records stand for, as json.dumps is given them ----------


def trace_payload(trace: TrainingTrace) -> dict:
    return {
        "summary": trace.summary(),
        "raises": [dict(zip(RAISE_KEYS, r)) for r in trace.raises],
        "steps": [dict(zip(STEP_KEYS, row)) for row in trace.rows],
    }


def ledger_payload(ledger: EnergyLedger) -> dict:
    totals = ledger.totals()
    return {
        "per_read_j": totals.per_read_j,
        "read_events": totals.read_events,
        "total_pulses": totals.total_pulses,
        "write_energy_j": totals.write_energy_j,
        "read_energy_j": totals.read_energy_j,
        "total_energy_j": totals.total_energy_j,
        "write_events": [
            {"site": site, "pulses": p, "per_pulse_j": per_pulse_j}
            for site, p, per_pulse_j in ledger.write_events
        ],
    }


def state_payload(state: WeightState) -> dict:
    return {
        "background_sums": list(state.background_sums),
        "written_sums": list(state.written_sums),
        "weights": list(state.weights),
        "threshold_background": state.threshold_background,
        "threshold_written": state.threshold_written,
        "threshold": state.threshold,
        "clamped_low": state.clamp_diagnostics.total,
        "clamped_high": 0,
    }


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- values at json's edges -------------------------------------------------------

floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ints = st.one_of(st.sampled_from([2**70, -2**70, 0]), st.integers(-2**63, 2**63))
ids = st.one_of(st.sampled_from(["z0", "café", 'say "hi"', "back\\slash", "☃\n\t"]), st.text(max_size=6))
pulses = st.one_of(st.none(), st.just(()), st.lists(ints, max_size=4).map(tuple))
vectors = st.lists(floats, max_size=9).map(tuple)
step_rows = st.tuples(ints, ids, ids, floats, floats, ids, st.one_of(st.none(), floats), pulses, vectors)
raise_rows = st.tuples(ints, floats, floats)
ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.lists(ids, max_size=3)),
        st.tuples(st.just("write"), ids, ids, st.lists(ints, max_size=4)),
    ),
    max_size=6,
)


def make_state(sums, threshold_sums, clamped) -> WeightState:
    return WeightState(*sums, *threshold_sums, sums[0], ClampDiagnostics(clamped))


scalars = st.one_of(st.none(), st.booleans(), ints, floats, floats.map(np.float64), ids)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ids, inner, max_size=3), max_leaves=8
)
states = st.builds(make_state, st.tuples(vectors, vectors, vectors), st.tuples(floats, floats, floats), ints)

ONE_STEP = (1, "z0", "z", 1.5, 1.0, "lower", None, (3, 2), (0.25,) * 9)


@given(rows=st.lists(step_rows, max_size=4), raises=st.lists(raise_rows, max_size=3),
       epochs=ints, converged=st.booleans(), final_weights=vectors, final_threshold=floats)
@example(rows=[ONE_STEP], raises=[], epochs=1, converged=True, final_weights=(0.25,) * 9, final_threshold=1.0)
def test_trace_text_is_the_json_of_its_payload(rows, raises, epochs, converged, final_weights, final_threshold):
    trace = TrainingTrace(rows, raises, epochs, converged, final_weights, final_threshold)
    assert "".join(trace_pieces(trace)) == reference(trace_payload(trace))


@given(ops=ledger_ops, per_read_j=floats, per_pulse_j=floats)
@example(ops=[("write", "w1", "+", [5])], per_read_j=4e-10, per_pulse_j=5.6e-12)
def test_ledger_text_is_the_json_of_its_payload(ops, per_read_j, per_pulse_j):
    ledger = EnergyLedger(per_read_j, per_pulse_j)
    for op in ops:
        if op[0] == "read":
            ledger.add_reads(op[1])
        else:
            ledger.add_writes(*op[1:])
    assert "".join(ledger_pieces(ledger)) == reference(ledger_payload(ledger))


@given(fields=st.dictionaries(ids, json_values, min_size=1, max_size=4))
@example(fields={"empty": {}, "float64": np.float64(0.1), "nested": [{}, np.float64(-0.0)]})
def test_document_text_is_the_json_of_its_fields(fields):
    # every branch of jsontext.value: scalars by exact type, lists, dicts
    # (an empty one prints {}) and float subclasses such as numpy's float64
    assert "".join(document(fields)) == json_text(fields)


@given(snapshots=st.lists(states, max_size=3))
def test_weight_state_texts_are_the_json_of_their_payloads(snapshots):
    for state in snapshots:
        assert "".join(state_pieces(state)) == reference(state_payload(state))
    assert "".join(snapshots_pieces(snapshots)) == reference([state_payload(s) for s in snapshots])


def test_streamed_writes_peak_below_a_quarter_of_the_file(tmp_path):
    # emulate --verbose at seed 7: a whole payload and its encoded text
    # would peak at several times the file's size
    cfg = load_config(overrides={"run.trace_verbosity": "2"})
    files = dict(run_files(emulate_run(cfg, 7, build_dataset(cfg.bitmaps)), cfg))
    for name in ("trace.json", "ledger.json"):
        tracemalloc.start()
        try:
            atomic_write(tmp_path / name, files[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / name).stat().st_size
        assert peak < size / 4, f"{name}: {size} B written at a {peak} B peak"
