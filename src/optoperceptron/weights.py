"""Background-referenced weight extraction on the raw counts scale.

A network weight is the fractional darkening of a readout region relative to
its cached background: w = (I_B - I_W) / I_B. On the raw count scale each
site contributes I_B - I_W; the input gate, trainer.pattern_output (inlined
in train), adds those of the active inputs only, in index order (an inactive
input reads B - B = 0). This module is arithmetic only: it refuses nothing,
since every background it is given is > 0 (Rig.capture_backgrounds refuses
any other before the first write), and it changes nothing, since each state
and its clamp count are built whole by WeightState.from_sums.
"""

from __future__ import annotations

from typing import NamedTuple


class ClampDiagnostics(NamedTuple):
    """The count, total, of weight values pushed below 0 by noise and clamped
    to 0; weight_state.json prints it as clamped_low. None is pushed above 1:
    with b > 0 and w >= 0, (b - w) / b rounds to at most 1.0, so
    weight_state.json prints clamped_high as 0."""

    total: int


def extract_weight(background_sum: float, written_sum: float) -> float:
    """(I_B - I_W) / I_B, clamped to [0, 1], for a background sum > 0.

    Noise can push the raw ratio below 0, and the weight is then 0. The
    written sum is a sum of counts clipped at 0, so it is never negative and
    keeps the ratio at most 1.
    """
    w = (background_sum - written_sum) / background_sum
    return 0.0 if w < 0.0 else w


# The artifact name of each field of a weight state's row, in row order.
STATE_KEYS = (
    "background_sums", "written_sums", "weights", "threshold_background",
    "threshold_written", "threshold", "clamped_low", "clamped_high",
)


class WeightState(NamedTuple):
    """Snapshot of the nine extracted weights plus the threshold."""

    background_sums: tuple[float, ...]
    written_sums: tuple[float, ...]
    weights: tuple[float, ...]
    threshold_background: float
    threshold_written: float
    threshold: float  # on the same counts scale as the gated inputs
    contributions: tuple[float, ...]  # I_B - I_W per site, unclamped
    clamp_diagnostics: ClampDiagnostics

    @classmethod
    def from_sums(
        cls,
        background_sums,
        written_sums,
        threshold_background: float,
        threshold_written: float,
    ) -> "WeightState":
        backgrounds = tuple(map(float, background_sums))
        writtens = tuple(map(float, written_sums))
        threshold_background = float(threshold_background)
        threshold_written = float(threshold_written)
        weights = tuple(extract_weight(b, w) for b, w in zip(backgrounds, writtens))
        contributions = tuple(b - w for b, w in zip(backgrounds, writtens))
        return cls(
            background_sums=backgrounds,
            written_sums=writtens,
            weights=weights,
            threshold_background=threshold_background,
            threshold_written=threshold_written,
            threshold=threshold_background - threshold_written,
            contributions=contributions,
            # b > 0, so extract_weight clamps exactly where b - w < 0
            clamp_diagnostics=ClampDiagnostics(sum(c < 0.0 for c in contributions)),
        )

    @property
    def row(self) -> tuple:
        """The state as its artifacts print it, in STATE_KEYS order."""
        return (
            self.background_sums, self.written_sums, self.weights, self.threshold_background,
            self.threshold_written, self.threshold, self.clamp_diagnostics.total, 0,
        )
