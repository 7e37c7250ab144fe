"""Supervised perceptron loop with stochastic learning rates.

One learning step is one pattern evaluation: the output (a weighted sum of
the pattern's binary inputs) is compared against the threshold, and on a
miss exactly one signed update eta * x is applied before moving to the next
pattern. Epochs repeat until a full clean pass; if any weight then sits
below zero the threshold is raised and training continues.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigurationError
from .patterns import CLASSES, N_INPUTS, Pattern


class Action(enum.Enum):
    ACCEPT = "accept"
    RAISE_OUTPUT = "raise"
    LOWER_OUTPUT = "lower"


# The members under module names, and a member's tag read as ``_value_``:
# on Python 3.11 ``Action.ACCEPT`` and ``.value`` each cost over ten times
# a global read, and the step path reads them on every step.
_ACCEPT, _RAISE, _LOWER = Action.ACCEPT, Action.RAISE_OUTPUT, Action.LOWER_OUTPUT


@dataclass(frozen=True)
class TrainerConfig:
    initial_weight: float = 0.5
    initial_threshold: float = 2.5
    eta_max: float = 0.014
    eta_fixed: float | None = None
    max_epochs: int = 500
    target_class: str = "v"
    threshold_raise: float = 0.05

    def __post_init__(self):
        if self.eta_max <= 0:
            raise ConfigurationError("eta_max must be > 0")
        if self.eta_fixed is not None and not 0 < self.eta_fixed:
            raise ConfigurationError("eta_fixed must be > 0 when set")
        if self.initial_threshold <= 0:
            raise ConfigurationError("initial_threshold must be > 0")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.target_class not in CLASSES:
            raise ConfigurationError(f"target_class must be one of {CLASSES}")
        if self.threshold_raise <= 0:
            raise ConfigurationError("threshold_raise must be > 0")


def pattern_output(weights: Sequence[float], pattern: Pattern) -> float:
    """Weighted sum of the pattern's 0/1 inputs: the input gate of both backends.

    Only the active inputs are summed, in index order from 0.0. That is
    bit-identical to the full sum of w * x: w * 1 is exact, a skipped
    w * 0 is +-0.0, which leaves a nonzero partial sum unchanged, and a
    zero partial sum is +0.0 either way because 0.0 + (-0.0) is 0.0.
    """
    if len(weights) != len(pattern.inputs):
        raise ValueError(
            f"weight vector length {len(weights)} != input length {len(pattern.inputs)}"
        )
    total = 0.0
    for i in pattern.active_indices:
        total += weights[i]
    return total


def classify(output: float, threshold: float, pattern_class: str, target_class: str) -> Action:
    """Accept, or the update direction needed to fix the output.

    Target-class patterns must land strictly above the threshold, all others
    strictly below; an exact tie is never accepted.
    """
    if pattern_class == target_class:
        return _ACCEPT if output > threshold else _RAISE
    return _ACCEPT if output < threshold else _LOWER


def update_weights(
    weights: Sequence[float], pattern: Pattern, direction: Action, eta: float
) -> list[float]:
    """w_i +- eta * x_i; only the pattern's active inputs move.

    Inactive inputs still take their +-0.0 step: a raise turns a -0.0
    weight (trainer.initial_weight may be -0.0) into +0.0. The signed step
    is +-eta itself, bit-identical to the product (+-1.0) * eta.
    """
    if direction is _RAISE:
        step = eta
    elif direction is _LOWER:
        step = -eta
    else:
        raise ValueError("direction must be RAISE_OUTPUT or LOWER_OUTPUT")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    return [w + step * x for w, x in zip(weights, pattern.inputs)]


def sample_eta(rng: np.random.Generator, eta_max: float) -> float:
    """Uniform draw from (0, eta_max]; deterministic per seeded rng."""
    if eta_max <= 0:
        raise ValueError("eta_max must be > 0")
    return eta_max * (1.0 - rng.random())


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
    steps: list[StepRecord] = field(default_factory=list)
    raises: list[ThresholdRaise] = field(default_factory=list)
    epochs: int = 0
    converged: bool = False
    final_weights: tuple[float, ...] = ()
    final_threshold: float = 0.0

    @property
    def total_steps(self) -> int:
        return len(self.steps)

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


@dataclass
class UpdateRecord:
    """What one weight update physically cost: eta, or delivered pulses."""

    eta: float | None = None
    pulses: tuple[int, ...] | None = None


class WeightBackend(Protocol):
    """Where the weights live: an abstract vector or the emulation rig."""

    def output(self, pattern: Pattern) -> float: ...

    def threshold(self) -> float: ...

    def apply_update(self, pattern: Pattern, direction: Action) -> UpdateRecord: ...

    def weights(self) -> tuple[float, ...]: ...


class VectorBackend:
    """Plain weight vector with sampled learning rates (simulation mode)."""

    def __init__(self, config: TrainerConfig, rng: np.random.Generator):
        self.config = config
        self._weights = (config.initial_weight,) * N_INPUTS
        self._rng = rng

    def output(self, pattern: Pattern) -> float:
        return pattern_output(self._weights, pattern)

    def threshold(self) -> float:
        return self.config.initial_threshold

    def apply_update(self, pattern: Pattern, direction: Action) -> UpdateRecord:
        if self.config.eta_fixed is not None:
            eta = self.config.eta_fixed
        else:
            eta = sample_eta(self._rng, self.config.eta_max)
        self._weights = tuple(update_weights(self._weights, pattern, direction, eta))
        return UpdateRecord(eta=eta)

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
    Only an update moves the weights, so they are read again after each
    update alone.
    """
    trace = TrainingTrace()
    output_of, update_of, weights_of = backend.output, backend.apply_update, backend.weights
    record = trace.steps.append
    target = config.target_class
    accepted = UpdateRecord()
    threshold = backend.threshold()
    weights = weights_of()
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        trace.epochs = epoch
        clean = True
        for pattern in patterns:
            step += 1
            output = output_of(pattern)
            action = classify(output, threshold, pattern.class_label, target)
            update = accepted
            if action is not _ACCEPT:
                clean = False
                update = update_of(pattern, action)
                weights = weights_of()
            record(
                StepRecord(
                    step, pattern.pattern_id, pattern.class_label, output, threshold,
                    action._value_, update.eta, update.pulses, weights,
                )
            )
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
    results = []
    for p in patterns:
        output = backend.output(p)
        results.append(
            EvalResult(
                pattern_id=p.pattern_id,
                class_label=p.class_label,
                role=p.role,
                output=output,
                threshold=threshold,
                desired_above=p.class_label == target_class,
                correct=classify(output, threshold, p.class_label, target_class)
                is _ACCEPT,
            )
        )
    return results

