import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optoperceptron.errors import ConfigurationError
from optoperceptron.patterns import Pattern, build_dataset
from optoperceptron.runner import eta_stream
from optoperceptron.synapse import ERASE, WRITE
from optoperceptron.trainer import (
    ACCEPT,
    LOWER_OUTPUT,
    RAISE_OUTPUT,
    VectorBackend,
    classify,
    evaluate_patterns,
    pattern_output,
    train,
    update_weights,
)
from typed_configs import trainer_config


def pat(bits, cls="v", pid=None, variant=0):
    role = "test" if variant == 1 else "train"
    return Pattern(pid or f"{cls}{variant}", cls, variant, role, tuple(bits))


def test_output_zero_inputs():
    assert pattern_output([0.5] * 9, pat([0] * 9)) == 0.0


def test_output_counts_active_inputs():
    p = pat([1, 1, 1, 0, 0, 0, 0, 0, 1])
    assert pattern_output([0.5] * 9, p) == pytest.approx(2.0)


def test_output_basis_vector():
    assert pattern_output([1] + [0] * 8, pat([1] * 9)) == 1.0


class GateStub:
    """A backend whose gate has the given lengths: the first before any
    update, the next after each update."""

    def __init__(self, *lengths):
        self.lengths = list(lengths)

    def gate(self):
        return (0.0,) * self.lengths[0]

    def threshold(self):
        return 1.0

    def apply_update(self, pattern, direction):
        self.lengths.pop(0)
        return 0.01, None

    def weights(self):
        return (0.0,) * 9


def test_output_length_mismatch():
    # train checks the gate at its first read and after each update,
    # evaluate_patterns at its one read; a 0.0 gate misses every v pattern
    config = trainer_config()
    patterns = [pat([1] * 9, cls="v")]
    for stub in (GateStub(8), GateStub(9, 8)):
        with pytest.raises(ValueError, match="weight vector length 8 != input length 9"):
            train(patterns, config, stub)
        assert stub.lengths == [8]
    with pytest.raises(ValueError, match="weight vector length 8 != input length 9"):
        evaluate_patterns(GateStub(8), patterns, "v", 1.0)


ALL_INPUT_VECTORS = [pat(bits) for bits in itertools.product((0, 1), repeat=9)]


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, 1e300, -1e300]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=9,
        max_size=9,
    )
)
def test_output_is_bit_identical_to_the_full_weighted_sum(weights):
    # the former formula sum(w * x): a left fold from the int 0, which is what
    # sum() does with floats up to Python 3.11 (3.12 compensates the rounding)
    for p in ALL_INPUT_VECTORS:
        full = float(functools.reduce(operator.add, (w * x for w, x in zip(weights, p.inputs)), 0))
        assert pattern_output(weights, p).hex() == full.hex()


def test_classify_target_above_accepts():
    assert classify(2.5 + 1e-9, 2.5, "v", "v") is ACCEPT
    assert classify(2.4, 2.5, "v", "v") is RAISE_OUTPUT


def test_classify_other_below_accepts():
    assert classify(2.5 + 1e-9, 2.5, "z", "v") is LOWER_OUTPUT
    assert classify(2.4, 2.5, "z", "v") is ACCEPT


def test_classify_tie_never_accepts():
    assert classify(2.5, 2.5, "v", "v") is RAISE_OUTPUT
    assert classify(2.5, 2.5, "z", "v") is LOWER_OUTPUT


@given(
    st.floats(-10, 10),
    st.floats(0.1, 10),
    st.floats(0.001, 1000),
    st.sampled_from(["z", "v", "n"]),
)
def test_classify_scale_invariant(output, threshold, k, cls):
    assert classify(output, threshold, cls, "v") is classify(
        output * k, threshold * k, cls, "v"
    )


def test_update_leaves_inactive_weights():
    w = update_weights([0.5] * 9, pat([0] * 9), RAISE_OUTPUT, 0.01)
    assert w == [0.5] * 9


def test_update_single_active_input():
    p = pat([1] + [0] * 8)
    w = update_weights([0.5] * 9, p, RAISE_OUTPUT, 0.01)
    assert w[0] == pytest.approx(0.51)
    assert w[1:] == [0.5] * 8


def test_update_raise_then_lower_restores():
    p = pat([1, 0, 1, 0, 1, 0, 1, 0, 1])
    w0 = [0.37] * 9
    w1 = update_weights(w0, p, RAISE_OUTPUT, 0.013)
    w2 = update_weights(w1, p, LOWER_OUTPUT, 0.013)
    assert w2 == w0


def test_update_rejects_bad_eta_and_direction():
    with pytest.raises(ValueError):
        update_weights([0.5] * 9, pat([1] * 9), RAISE_OUTPUT, 0.0)
    with pytest.raises(ValueError):
        update_weights([0.5] * 9, pat([1] * 9), ACCEPT, 0.01)
    with pytest.raises(ValueError):
        update_weights([0.5] * 9, pat([1] * 9), "RAISE", 0.01)


def same_float(a: float, b: float) -> bool:
    """Equal, with equal signs: +0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# Mixed +-0.0 weights: a raise turns each inactive -0.0 into +0.0, a lowering keeps it.
MIXED_ZEROS = [-0.0, 0.0, -0.0, 1.5, -0.0, -2.0, 0.0, -0.0, 5e-324]


@given(
    st.lists(FINITE, min_size=9, max_size=9),
    st.sampled_from(ALL_INPUT_VECTORS),
    st.sampled_from([RAISE_OUTPUT, LOWER_OUTPUT]),
    st.one_of(
        st.sampled_from([0.014, 5e-324, 1e300]),
        st.floats(min_value=5e-324, allow_infinity=False),
    ),
)
@example(MIXED_ZEROS, pat([1, 0, 0, 1, 1, 0, 0, 0, 0]), RAISE_OUTPUT, 0.014)
@example(MIXED_ZEROS, pat([0] * 9), RAISE_OUTPUT, 0.014)
@example(MIXED_ZEROS, pat([1] * 9), RAISE_OUTPUT, 5e-324)
@example(MIXED_ZEROS, pat([0, 1, 0, 0, 0, 0, 0, 1, 0]), LOWER_OUTPUT, 0.014)
def test_update_is_bit_identical_to_the_signed_product(weights, p, direction, eta):
    sign = 1.0 if direction == RAISE_OUTPUT else -1.0
    reference = [w + sign * eta * x for w, x in zip(weights, p.inputs)]
    updated = update_weights(weights, p, direction, eta)
    assert len(updated) == 9
    assert all(same_float(a, b) for a, b in zip(updated, reference))


def test_raise_turns_an_inactive_negative_zero_weight_positive():
    # trainer.initial_weight = -0.0: a raise moves every inactive input to +0.0
    backend = VectorBackend(trainer_config(initial_weight=-0.0, eta_fixed=0.01), np.random.default_rng(0))
    backend.apply_update(pat([1] + [0] * 8), RAISE_OUTPUT)
    raised = backend.weights()
    assert same_float(raised[0], 0.01)
    assert all(same_float(w, 0.0) for w in raised[1:])
    lowered = update_weights([-0.0] * 9, pat([1] + [0] * 8), LOWER_OUTPUT, 0.01)
    assert same_float(lowered[0], -0.01)
    assert all(same_float(w, -0.0) for w in lowered[1:])


def test_classify_tags_are_the_artifact_actions():
    assert (ACCEPT, RAISE_OUTPUT, LOWER_OUTPUT) == ("accept", "raise", "lower")
    assert (WRITE, ERASE) == ("write", "erase")
    tags = {classify(o, 2.5, c, "v") for o in (2.4, 2.6) for c in ("v", "z")}
    assert tags == {"accept", "raise", "lower"}


def sample_etas(seed: int, eta_max: float, n: int) -> list[float]:
    """The learning rates of n raises on a VectorBackend drawing from eta_stream(seed)."""
    backend = VectorBackend(trainer_config(eta_max=eta_max), eta_stream(seed))
    p = pat([1] * 9)
    return [backend.apply_update(p, RAISE_OUTPUT)[0] for _ in range(n)]


def test_sample_etas_in_half_open_interval():
    draws = sample_etas(0, 0.014, 1000)
    assert all(0.0 < eta <= 0.014 for eta in draws)


def test_sample_etas_deterministic_per_seed():
    assert sample_etas(3, 0.014, 10) == sample_etas(3, 0.014, 10)
    assert sample_etas(3, 0.014, 10) != sample_etas(4, 0.014, 10)


def test_sample_etas_mean():
    draws = sample_etas(1, 0.014, 100_000)
    assert abs(sum(draws) / len(draws) - 0.007) / 0.007 < 0.02


def test_vector_backend_takes_the_stream_in_draw_order():
    # the k-th update gets the k-th scalar draw, from a numpy Generator too
    config = trainer_config(eta_max=0.3)
    backend = VectorBackend(config, np.random.default_rng(8))
    twin = np.random.default_rng(8)
    p = pat([1] * 9)
    for _ in range(131):
        eta, pulses = backend.apply_update(p, RAISE_OUTPUT)
        assert eta == 0.3 * (1.0 - twin.random()) and pulses is None


def test_fixed_point_dataset_accepts_everything():
    # v has >= 6 active inputs on every variant, z and n at most 4: with
    # w = 0.5 and b = 2.5 every pattern is already on its desired side
    bitmaps = {
        "z": ("100", "010", "001"),
        "v": ("111", "101", "111"),
        "n": ("001", "010", "100"),
    }
    dataset = build_dataset(bitmaps)
    config = trainer_config()
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(0)))
    assert trace.converged
    assert trace.total_steps == 24
    assert all(s.action == "accept" for s in trace.steps)
    assert trace.final_weights == (0.5,) * 9


def test_training_converges_and_orders_classes():
    dataset = build_dataset()
    config = trainer_config()
    backend = VectorBackend(config, rng=np.random.default_rng(11))
    trace = train(dataset.training, config, backend)
    assert trace.converged
    # converged means the last full pass was 24 accepts
    assert all(s.action == "accept" for s in trace.steps[-24:])
    results = evaluate_patterns(backend, dataset.training, "v", trace.final_threshold)
    assert [r.correct for r in results] == [True] * 24


def test_training_deterministic_with_fixed_eta():
    dataset = build_dataset()
    config = trainer_config(eta_fixed=0.01)
    t1 = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(0)))
    t2 = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(0)))
    assert [(s.pattern_id, s.action, s.weights) for s in t1.steps] == [
        (s.pattern_id, s.action, s.weights) for s in t2.steps
    ]


def test_training_step_indices_consecutive():
    dataset = build_dataset()
    config = trainer_config()
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(5)))
    assert [s.step for s in trace.steps] == list(range(1, trace.total_steps + 1))


def test_updates_touch_only_active_indices():
    dataset = build_dataset()
    config = trainer_config()
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(2)))
    by_id = {p.pattern_id: p for p in dataset.training}
    previous = (config.initial_weight,) * 9
    for record in trace.steps:
        changed = {i for i in range(9) if record.weights[i] != previous[i]}
        active = set(by_id[record.pattern_id].active_indices)
        assert changed <= active
        if record.action == "accept":
            assert not changed
        previous = record.weights


@pytest.mark.parametrize("initial_weight", [0.5, -0.0])
def test_step_records_hold_the_weights_after_each_step(initial_weight):
    # replaying the recorded updates on a fresh backend reproduces each record
    dataset = build_dataset()
    config = trainer_config(initial_weight=initial_weight, max_epochs=20)
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(4)))
    replay = VectorBackend(config, rng=np.random.default_rng(4))
    by_id = {p.pattern_id: p for p in dataset.training}
    for record in trace.steps:
        if record.action != "accept":
            eta, pulses = replay.apply_update(by_id[record.pattern_id], record.action)
            assert (eta, pulses) == (record.eta, None)
        assert [w.hex() for w in record.weights] == [w.hex() for w in replay.weights()]
    assert replay.weights() == trace.final_weights


def test_threshold_raise_path():
    # w2 must end negative for a clean pass (z superset of v), so every
    # clean pass triggers a raise and the run exhausts max_epochs
    patterns = (
        pat([1, 0, 0, 0, 0, 0, 0, 0, 0], cls="v", pid="v0"),
        pat([1, 1, 0, 0, 0, 0, 0, 0, 0], cls="z", pid="z0"),
    )
    config = trainer_config(
        initial_weight=0.05, initial_threshold=0.2, eta_fixed=0.3, max_epochs=30
    )
    backend = VectorBackend(config, rng=np.random.default_rng(0))
    trace = train(patterns, config, backend)
    assert not trace.converged
    assert trace.threshold_raises >= 1
    assert min(trace.final_weights) < 0
    # threshold never decreases over the run
    thresholds = [s.threshold for s in trace.steps]
    assert thresholds == sorted(thresholds)
    # each raise compounds the last: the same float operation every time
    previous = config.initial_threshold
    for r in trace.raises:
        assert r.old_threshold == previous
        assert r.new_threshold == r.old_threshold * (1.0 + config.threshold_raise)
        previous = r.new_threshold
    assert trace.final_threshold == previous


def test_max_epochs_returns_unconverged_trace():
    dataset = build_dataset()
    config = trainer_config(max_epochs=1)
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(0)))
    assert not trace.converged
    assert trace.epochs == 1


def test_evaluate_test_read_only_and_correct():
    dataset = build_dataset()
    config = trainer_config()
    backend = VectorBackend(config, rng=np.random.default_rng(19))
    trace = train(dataset.training, config, backend)
    assert trace.converged
    first = evaluate_patterns(backend, dataset.testing, "v", trace.final_threshold)
    second = evaluate_patterns(backend, dataset.testing, "v", trace.final_threshold)
    assert first == second
    assert backend.weights() == trace.final_weights
    assert all(r.correct for r in first)
    v_test = next(r for r in first if r.class_label == "v")
    assert v_test.output > trace.final_threshold


def test_trace_json_shape():
    dataset = build_dataset()
    config = trainer_config(max_epochs=2)
    trace = train(dataset.training, config, VectorBackend(config, rng=np.random.default_rng(1)))
    import json

    payload = json.loads(json.dumps(trace.to_json_dict()))
    assert payload["summary"]["total_steps"] == trace.total_steps
    assert len(payload["steps"]) == trace.total_steps


def test_config_validation():
    # the trainer.* bounds are the key table's; load_config applies them
    with pytest.raises(ConfigurationError, match="trainer.eta_max: 0.0 must be above 0.0"):
        trainer_config(eta_max=0.0)
    with pytest.raises(ConfigurationError, match="trainer.initial_threshold: 0.0 must be above"):
        trainer_config(initial_threshold=0.0)
    with pytest.raises(ConfigurationError, match="trainer.max_epochs: 0 is below the minimum 1"):
        trainer_config(max_epochs=0)
    with pytest.raises(ConfigurationError, match="trainer.target_class: expected one of"):
        trainer_config(target_class="q")
