"""Supervised perceptron loop with stochastic learning rates.

One learning step is one pattern evaluation: the output (a weighted sum of
the pattern's binary inputs) is compared against the threshold, and on a
miss exactly one signed update eta * x is applied before moving to the next
pattern. Epochs repeat until a full clean pass; if any weight then sits
below zero the threshold is raised and training continues.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence

from .patterns import N_INPUTS, Pattern
from .pcg import Pcg64


# A step's action, as its trace row and the artifacts record it.
ACCEPT, RAISE_OUTPUT, LOWER_OUTPUT = "accept", "raise", "lower"


class TrainerConfig(NamedTuple):
    initial_weight: float
    initial_threshold: float
    eta_max: float
    eta_fixed: float | None
    max_epochs: int
    target_class: str
    threshold_raise: float


def pattern_output(weights: Sequence[float], pattern: Pattern) -> float:
    """Weighted sum of the pattern's 0/1 inputs: the one input gate, which
    evaluate_patterns calls and train inlines on a backend's gate() vector.

    Only the active inputs are summed, in index order from 0.0. That is
    bit-identical to the full sum of w * x: w * 1 is exact, a skipped
    w * 0 is +-0.0, which leaves a nonzero partial sum unchanged, and a
    zero partial sum is +0.0 either way because 0.0 + (-0.0) is 0.0. Both
    backends build their gate with one entry per input.
    """
    total = 0.0
    for i in pattern.active_indices:
        total += weights[i]
    return total


def classify(output: float, threshold: float, pattern_class: str, target_class: str) -> str:
    """Accept, or the update direction needed to fix the output.

    Target-class patterns must land strictly above the threshold, all others
    strictly below; an exact tie is never accepted.
    """
    if pattern_class == target_class:
        return ACCEPT if output > threshold else RAISE_OUTPUT
    return ACCEPT if output < threshold else LOWER_OUTPUT


# The artifact name of each field of a step, threshold raise and evaluation row, in row order.
STEP_KEYS = ("step", "pattern_id", "class", "output", "threshold", "action", "eta", "pulses", "weights")
RAISE_KEYS = ("after_step", "old_threshold", "new_threshold")
EVAL_KEYS = ("pattern_id", "class", "role", "output", "threshold", "desired_above", "correct")


class StepRecord(NamedTuple):
    """A step row by field name; no artifact writer builds one, they read the rows."""

    step: int
    pattern_id: str
    class_label: str
    output: float
    threshold: float
    action: str
    eta: float | None
    pulses: tuple[int, ...] | None
    weights: tuple[float, ...]


class TrainingTrace(NamedTuple):
    """A learning run as train returns it, built once: rows holds one plain
    tuple per step, in STEP_KEYS order, and raises one per threshold raise,
    in RAISE_KEYS order; steps builds the StepRecords on each read, so a
    caller that reads none builds none."""

    rows: list[tuple]
    raises: list[tuple]
    epochs: int
    converged: bool
    final_weights: tuple[float, ...]
    final_threshold: float

    @property
    def steps(self) -> list[StepRecord]:
        return [StepRecord(*row) for row in self.rows]

    @property
    def total_steps(self) -> int:
        return len(self.rows)

    @property
    def threshold_raises(self) -> int:
        return len(self.raises)

    def summary(self) -> dict:
        return {
            "total_steps": self.total_steps,
            "epochs": self.epochs,
            "threshold_raises": self.threshold_raises,
            "converged": self.converged,
            "final_weights": list(self.final_weights),
            "final_threshold": self.final_threshold,
        }


class WeightBackend(Protocol):
    """Where the weights live: an abstract vector (VectorBackend) or, in
    emulate, the rig itself, which also keeps the weight snapshots.

    gate() is the vector that pattern_output sums for the current weight
    state; it changes only when apply_update moves the weights, and that one
    call returns (eta, pulses, gate, weights), the two as gate() and
    weights() would read them after it.
    """

    def gate(self) -> Sequence[float]: ...

    def threshold(self) -> float: ...

    def apply_update(self, pattern: Pattern, direction: str) -> tuple: ...  # (eta, pulses, gate, weights)

    def weights(self) -> tuple[float, ...]: ...


class VectorBackend:
    """Plain weight vector with sampled learning rates (simulation mode).

    Each sampled learning rate takes one rng.random() draw, in order, so the
    k-th update gets the k-th draw; rng (or a numpy Generator) serves nothing else.
    The weight vector is its own gate, so apply_update returns it twice.
    """

    def __init__(self, config: TrainerConfig, rng: Pcg64):
        self.config = config
        self._eta_fixed, self._eta_max = config.eta_fixed, config.eta_max
        self._weights = (config.initial_weight,) * N_INPUTS
        self._rng = rng

    def gate(self) -> tuple[float, ...]:
        return self._weights

    def threshold(self) -> float:
        return self.config.initial_threshold

    def apply_update(self, pattern: Pattern, direction: str) -> tuple:
        """w_i +- eta * x_i, bit for bit; only the pattern's active inputs move.

        An active input adds +-eta, the product (+-1.0) * eta. An inactive one
        adds the product's +-0.0, which changes a weight only on a raise:
        -0.0 + 0.0 is +0.0 (trainer.initial_weight may be -0.0). w + 0.0 is w
        for any other weight, so a raise maps every weight through it only when
        some weight equals 0.0.
        """
        eta = self._eta_fixed
        if eta is None:
            eta = self._eta_max * (1.0 - self._rng.random())
        weights = list(self._weights)
        step = -eta
        if direction == RAISE_OUTPUT:
            step = eta
            if 0.0 in weights:
                weights = [w + 0.0 for w in weights]
        for i in pattern.active_indices:
            weights[i] += step
        self._weights = weights = tuple(weights)
        return eta, None, weights, weights

    def weights(self) -> tuple[float, ...]:
        return self._weights


def train(
    patterns: Sequence[Pattern], config: TrainerConfig, backend: WeightBackend
) -> TrainingTrace:
    """Run the supervised loop until a clean pass with non-negative weights.

    Patterns are visited in the order given; a miss triggers exactly one
    update before the loop advances. The threshold starts at
    backend.threshold() and only train raises it: a clean pass that ends
    with a negative weight multiplies it by 1 + config.threshold_raise and
    training continues. Hitting max_epochs returns an unconverged trace.
    Only an update moves the weights, so a miss makes one backend call,
    which returns the gate and weights it moved. Each step inlines
    pattern_output of that gate (the active inputs added in index order from
    0.0, never with sum(), whose float algorithm varies by Python version)
    and classify's strict test, so an accepted step calls nothing but record.
    """
    rows: list[tuple] = []
    raises: list[tuple] = []
    update_of = backend.apply_update
    record = rows.append
    target = config.target_class
    plan = [(p, p.pattern_id, p.class_label, p.active_indices, p.class_label == target) for p in patterns]
    threshold = backend.threshold()
    gate, weights = backend.gate(), backend.weights()
    step = epoch = 0
    converged = False
    for epoch in range(1, config.max_epochs + 1):
        clean = True
        for pattern, pattern_id, class_label, active, is_target in plan:
            step += 1
            output = 0.0
            for i in active:
                output += gate[i]
            if output > threshold if is_target else output < threshold:
                record((step, pattern_id, class_label, output, threshold, ACCEPT, None, None, weights))
                continue
            clean = False
            action = RAISE_OUTPUT if is_target else LOWER_OUTPUT
            eta, pulses, gate, weights = update_of(pattern, action)
            record((step, pattern_id, class_label, output, threshold, action, eta, pulses, weights))
        if clean:
            if min(weights) < 0:
                old = threshold
                threshold *= 1.0 + config.threshold_raise
                raises.append((step, old, threshold))
            else:
                converged = True
                break
    return TrainingTrace(rows, raises, epoch, converged, weights, threshold)


def evaluate_patterns(
    backend: WeightBackend, patterns: Sequence[Pattern], target_class: str, threshold: float
) -> list[tuple]:
    """Read-only pass judging every pattern against the one given threshold:
    one plain tuple per pattern, in EVAL_KEYS order."""
    gate = backend.gate()
    results = []
    for p in patterns:
        output = pattern_output(gate, p)
        label = p.class_label
        correct = classify(output, threshold, label, target_class) == ACCEPT
        results.append((p.pattern_id, label, p.role, output, threshold, label == target_class, correct))
    return results
