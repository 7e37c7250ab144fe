import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoperceptron.errors import DegenerateBackgroundError
from optoperceptron.weights import (
    ClampDiagnostics,
    WeightState,
    extract_threshold,
    extract_weight,
)


def test_unwritten_site_weight_zero():
    assert extract_weight(1000, 1000) == 0.0


def test_fully_dark_spot_weight_one():
    assert extract_weight(1000, 0) == 1.0


def test_weight_direct_value():
    assert extract_weight(1000, 600) == pytest.approx(0.4)


def test_degenerate_background_rejected():
    with pytest.raises(DegenerateBackgroundError):
        extract_weight(0, 100)
    with pytest.raises(DegenerateBackgroundError):
        extract_threshold(0, 0)


def test_clamping_counted():
    diag = ClampDiagnostics()
    assert extract_weight(1000, 1050, diag) == 0.0  # noise pushed I_W above I_B
    assert diag.low == 1 and diag.high == 0 and diag.total == 1


@given(
    st.lists(st.tuples(st.integers(1, 2**53), st.integers(0, 2**54)), min_size=1, max_size=9)
)
def test_integer_sums_never_clamp_high(pairs):
    # b - w rounds to at most b and (b - w) / b to at most 1.0, so no
    # weight read from camera sums can sit above 1
    backgrounds, writtens = zip(*pairs)
    state = WeightState.from_sums(backgrounds, writtens, 2000, 100)
    assert all(0.0 <= w <= 1.0 for w in state.weights)
    assert state.clamp_diagnostics.high == 0


@given(
    st.floats(1.0, 1e9),
    st.floats(0.0, 1e9),
    st.floats(0.001, 1e6),
)
def test_weight_scale_invariant(background, written, k):
    w1 = extract_weight(background, written)
    w2 = extract_weight(background * k, written * k)
    assert w1 == pytest.approx(w2, rel=1e-12)


@pytest.mark.parametrize(
    "background, written, contribution",
    [(1000, 1000, 0.0), (1000, 600, 400.0)],
    ids=["zero-weight", "direct-value"],
)
def test_weight_state_contribution(background, written, contribution):
    state = WeightState.from_sums([background] * 9, [written] * 9, 2000, 100)
    assert state.contributions == (contribution,) * 9


def test_gate_open_degenerate_background():
    # the counts-scale contribution B - W of an open gate needs a usable background
    with pytest.raises(DegenerateBackgroundError):
        WeightState.from_sums([1000] * 8 + [0], [0] * 9, 2000, 100)


@given(st.floats(1.0, 1e9), st.floats(0.0, 1e9))
def test_contribution_equals_background_times_weight(background, written):
    # identity holds whenever the raw ratio needs no clamping
    if 0.0 <= (background - written) / background <= 1.0:
        state = WeightState.from_sums([background] * 9, [written] * 9, 2000, 100)
        assert state.contributions[0] == pytest.approx(
            background * extract_weight(background, written), rel=1e-12
        )


def test_threshold_unwritten_is_zero():
    assert extract_threshold(5000, 5000) == 0.0


def test_threshold_fully_written_equals_background():
    assert extract_threshold(5000, 0) == 5000


def test_weight_state_from_sums():
    state = WeightState.from_sums(
        background_sums=[1000] * 9,
        written_sums=[600, 1000, 0, 500, 1000, 400, 1000, 700, 1050],
        threshold_background=2000,
        threshold_written=500,
    )
    assert state.weights[0] == pytest.approx(0.4)
    assert state.weights[1] == 0.0
    assert state.weights[2] == 1.0
    assert state.weights[8] == 0.0  # clamped
    assert state.clamp_diagnostics.low == 1
    assert state.threshold == 1500
    assert state.contributions[0] == 400
    assert state.contributions[8] == -50  # unclamped, unlike the weight


def test_weight_state_json_roundtrip():
    state = WeightState.from_sums([1000] * 9, [500] * 9, 2000, 100)
    payload = json.loads(json.dumps(state.to_json_dict()))
    assert payload["weights"] == [0.5] * 9
    assert payload["threshold"] == 1900
    # int count sums print as floats, the threshold like the sums it comes from
    assert type(state.threshold) is type(state.threshold_background) is float
    assert payload["clamped_low"] == 0


def test_weight_state_mismatched_sums_rejected():
    with pytest.raises(ValueError):
        WeightState.from_sums([1000] * 9, [500] * 8, 2000, 100)
