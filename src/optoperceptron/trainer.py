"""Supervised perceptron loop with stochastic learning rates.

One learning step is one pattern evaluation: the output (a weighted sum of
the pattern's binary inputs) is compared against the threshold, and on a
miss exactly one signed update eta * x is applied before moving to the next
pattern. Epochs repeat until a full clean pass; if any weight then sits
below zero the threshold is raised and training continues.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Protocol, Sequence

from .patterns import N_INPUTS, Pattern
from .pcg import Pcg64


# A step's action, as its trace row and the artifacts record it.
ACCEPT, RAISE_OUTPUT, LOWER_OUTPUT = "accept", "raise", "lower"


@dataclass(frozen=True)
class TrainerConfig:
    initial_weight: float
    initial_threshold: float
    eta_max: float
    eta_fixed: float | None
    max_epochs: int
    target_class: str
    threshold_raise: float


def pattern_output(weights: Sequence[float], pattern: Pattern) -> float:
    """Weighted sum of the pattern's 0/1 inputs: the one input gate, applied by
    the trainer to the vector a backend's gate() supplies.

    Only the active inputs are summed, in index order from 0.0. That is
    bit-identical to the full sum of w * x: w * 1 is exact, a skipped
    w * 0 is +-0.0, which leaves a nonzero partial sum unchanged, and a
    zero partial sum is +0.0 either way because 0.0 + (-0.0) is 0.0. The
    caller checks the vector's length once per gate read (_read_gate).
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


def update_weights(
    weights: Sequence[float], pattern: Pattern, direction: str, eta: float
) -> list[float]:
    """w_i +- eta * x_i, bit for bit; only the pattern's active inputs move.

    An active input adds +-eta, the product (+-1.0) * eta. An inactive one
    adds the product's +-0.0, which changes a weight only on a raise:
    -0.0 + 0.0 is +0.0 (trainer.initial_weight may be -0.0). w + 0.0 is w
    for any other weight, so a raise maps every weight through it only when
    some weight equals 0.0.
    """
    if direction == RAISE_OUTPUT:
        step = eta
    elif direction == LOWER_OUTPUT:
        step = -eta
    else:
        raise ValueError("direction must be RAISE_OUTPUT or LOWER_OUTPUT")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    updated = list(weights)
    if direction == RAISE_OUTPUT and 0.0 in updated:
        updated = [w + 0.0 for w in updated]
    for i in pattern.active_indices:
        updated[i] += step
    return updated


def _read_gate(backend: WeightBackend) -> Sequence[float]:
    """The backend's gate vector, checked to have one weight per input."""
    gate = backend.gate()
    if len(gate) != N_INPUTS:
        raise ValueError(f"weight vector length {len(gate)} != input length {N_INPUTS}")
    return gate


@dataclass(slots=True)
class StepRecord:
    step: int
    pattern_id: str
    class_label: str
    output: float
    threshold: float
    action: str
    eta: float | None
    pulses: tuple[int, ...] | None
    weights: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "pattern_id": self.pattern_id,
            "class": self.class_label,
            "output": self.output,
            "threshold": self.threshold,
            "action": self.action,
            "eta": self.eta,
            "pulses": list(self.pulses) if self.pulses is not None else None,
            "weights": list(self.weights),
        }


@dataclass
class ThresholdRaise:
    after_step: int
    old_threshold: float
    new_threshold: float


@dataclass
class TrainingTrace:
    """rows holds one plain tuple per step in StepRecord field order; steps
    builds the StepRecords on each read, so a caller that reads none builds none."""

    rows: list[tuple] = field(default_factory=list)
    raises: list[ThresholdRaise] = field(default_factory=list)
    epochs: int = 0
    converged: bool = False
    final_weights: tuple[float, ...] = ()
    final_threshold: float = 0.0

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

    def to_json_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "raises": [asdict(r) for r in self.raises],
            "steps": [s.to_json_dict() for s in self.steps],
        }


class WeightBackend(Protocol):
    """Where the weights live: an abstract vector (VectorBackend) or, in
    emulate, the rig itself, which also keeps the weight snapshots.

    gate() is the vector that pattern_output sums for the current weight
    state; it changes only when apply_update moves the weights.
    """

    def gate(self) -> Sequence[float]: ...

    def threshold(self) -> float: ...

    def apply_update(self, pattern: Pattern, direction: str) -> tuple: ...  # (eta, pulses)

    def weights(self) -> tuple[float, ...]: ...


class VectorBackend:
    """Plain weight vector with sampled learning rates (simulation mode).

    Each sampled learning rate takes one rng.random() draw, in order, so the
    k-th update gets the k-th draw; rng (or a numpy Generator) serves nothing else.
    """

    def __init__(self, config: TrainerConfig, rng: Pcg64):
        self.config = config
        self._weights = (config.initial_weight,) * N_INPUTS
        self._rng = rng

    def gate(self) -> tuple[float, ...]:
        return self._weights

    def threshold(self) -> float:
        return self.config.initial_threshold

    def apply_update(self, pattern: Pattern, direction: str) -> tuple[float, None]:
        eta = self.config.eta_fixed
        if eta is None:
            eta = self.config.eta_max * (1.0 - self._rng.random())
        self._weights = tuple(update_weights(self._weights, pattern, direction, eta))
        return eta, None

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
    Only an update moves the weights, so they and the backend's gate are
    read (and the gate's length checked) again after each update alone, and
    each output is pattern_output of that gate.
    """
    trace = TrainingTrace()
    update_of, weights_of = backend.apply_update, backend.weights
    record = trace.rows.append
    target = config.target_class
    threshold = backend.threshold()
    gate, weights = _read_gate(backend), weights_of()
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        trace.epochs = epoch
        clean = True
        for pattern in patterns:
            step += 1
            output = pattern_output(gate, pattern)
            action = classify(output, threshold, pattern.class_label, target)
            eta = pulses = None
            if action != ACCEPT:
                clean = False
                eta, pulses = update_of(pattern, action)
                gate, weights = _read_gate(backend), weights_of()
            record((step, pattern.pattern_id, pattern.class_label, output, threshold,
                    action, eta, pulses, weights))
        if clean:
            if min(weights) < 0:
                old = threshold
                threshold *= 1.0 + config.threshold_raise
                trace.raises.append(ThresholdRaise(step, old, threshold))
            else:
                trace.converged = True
                break
    trace.final_weights = weights
    trace.final_threshold = threshold
    return trace


@dataclass
class EvalResult:
    pattern_id: str
    class_label: str
    role: str
    output: float
    threshold: float
    desired_above: bool
    correct: bool


def evaluate_patterns(
    backend: WeightBackend, patterns: Sequence[Pattern], target_class: str, threshold: float
) -> list[EvalResult]:
    """Read-only pass judging every pattern against the one given threshold."""
    gate = _read_gate(backend)
    results = []
    for p in patterns:
        output = pattern_output(gate, p)
        results.append(
            EvalResult(
                pattern_id=p.pattern_id,
                class_label=p.class_label,
                role=p.role,
                output=output,
                threshold=threshold,
                desired_above=p.class_label == target_class,
                correct=classify(output, threshold, p.class_label, target_class) == ACCEPT,
            )
        )
    return results

