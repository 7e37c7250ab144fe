import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.jsontext import state_pieces
from optoperceptron.weights import WeightState, extract_weight


def state_json(state: WeightState) -> dict:
    """weight_state.json of the state, read back."""
    return json.loads("".join(state_pieces(state)))


def test_unwritten_site_weight_zero():
    assert extract_weight(1000, 1000) == 0.0


def test_fully_dark_spot_weight_one():
    assert extract_weight(1000, 0) == 1.0


def test_weight_direct_value():
    assert extract_weight(1000, 600) == pytest.approx(0.4)


def test_clamping_counted():
    assert extract_weight(1000, 1050) == 0.0  # noise pushed I_W above I_B
    state = WeightState.from_sums([1000], [1050], 2000, 100)
    assert state.clamp_diagnostics.total == 1
    payload = state_json(state)
    assert (payload["clamped_low"], payload["clamped_high"]) == (1, 0)


@given(
    st.lists(st.tuples(st.integers(1, 2**53), st.integers(0, 2**54)), min_size=1, max_size=9)
)
def test_integer_sums_never_clamp_high(pairs):
    # b - w rounds to at most b and (b - w) / b to at most 1.0, so no
    # weight read from camera sums can sit above 1
    backgrounds, writtens = zip(*pairs)
    state = WeightState.from_sums(backgrounds, writtens, 2000, 100)
    assert all(0.0 <= w <= 1.0 for w in state.weights)
    assert state_json(state)["clamped_high"] == 0


def accumulated_clamps(backgrounds, writtens) -> int:
    """The reference clamp count, tallied weight by weight: one per negative
    raw ratio (b - w) / b."""
    total = 0
    for b, w in zip(backgrounds, writtens):
        if (b - w) / b < 0.0:
            total += 1
    return total


sums = st.floats(0.0, 2.0**60) | st.integers(0, 2**54).map(float)


@given(st.lists(st.tuples(sums.filter(lambda b: b > 0.0), sums), min_size=1, max_size=9))
@example([(5e-324, 1e-323), (1.0, 1.0000000000000002), (1.0000000000000002, 1.0), (2.0**60, 2.0**60)])
def test_clamp_count_is_the_count_of_negative_contributions(pairs):
    # b > 0 and b != w give b - w != 0 and |b - w| / b >= 2**-53, so the
    # ratio is negative, and never -0.0, exactly where the contribution is
    backgrounds, writtens = zip(*pairs)
    state = WeightState.from_sums(backgrounds, writtens, 2000, 100)
    assert state.clamp_diagnostics.total == accumulated_clamps(backgrounds, writtens)
    assert state.weights == tuple(0.0 if c < 0.0 else c / b for c, b in zip(state.contributions, backgrounds))


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


@given(st.floats(1.0, 1e9), st.floats(0.0, 1e9))
def test_contribution_equals_background_times_weight(background, written):
    # identity holds whenever the raw ratio needs no clamping
    if 0.0 <= (background - written) / background <= 1.0:
        state = WeightState.from_sums([background] * 9, [written] * 9, 2000, 100)
        assert state.contributions[0] == pytest.approx(
            background * extract_weight(background, written), rel=1e-12
        )


def test_threshold_unwritten_is_zero():
    assert WeightState.from_sums([1000] * 9, [0] * 9, 5000, 5000).threshold == 0.0


def test_threshold_fully_written_equals_background():
    assert WeightState.from_sums([1000] * 9, [0] * 9, 5000, 0).threshold == 5000


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
    assert state.clamp_diagnostics.total == 1
    assert state.threshold == 1500
    assert state.contributions[0] == 400
    assert state.contributions[8] == -50  # unclamped, unlike the weight


def test_weight_state_json_roundtrip():
    state = WeightState.from_sums([1000] * 9, [500] * 9, 2000, 100)
    payload = state_json(state)
    assert payload["weights"] == [0.5] * 9
    assert payload["threshold"] == 1900
    # int count sums print as floats, the threshold like the sums it comes from
    assert type(state.threshold) is type(state.threshold_background) is float
    assert payload["clamped_low"] == 0
