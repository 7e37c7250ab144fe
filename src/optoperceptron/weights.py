"""Background-referenced weight extraction on the raw counts scale.

A network weight is the fractional darkening of a readout region relative to
its cached background: w = (I_B - I_W) / I_B. On the raw count scale each
site contributes I_B - I_W; the input gate, trainer.pattern_output (inlined
in train), adds those of the active inputs only, in index order (an inactive
input reads B - B = 0). This module is arithmetic only: every background it
is given is > 0: Rig.capture_backgrounds refuses any other before the first write.
"""

from __future__ import annotations

from typing import NamedTuple


class ClampDiagnostics:
    """The count, total, of weight values pushed below 0 by noise and clamped
    to 0; weight_state.json prints it as clamped_low. None is pushed above 1:
    with b > 0 and w >= 0, (b - w) / b rounds to at most 1.0, so
    weight_state.json prints clamped_high as 0."""

    def __init__(self):
        self.total = 0


def extract_weight(
    background_sum: float, written_sum: float, diagnostics: ClampDiagnostics
) -> float:
    """(I_B - I_W) / I_B, clamped to [0, 1], for a background sum > 0.

    Clamping events (noise pushing the raw ratio below 0) are tallied in
    diagnostics. The written sum is a sum of counts clipped at 0, so it is
    never negative and keeps the ratio at most 1.
    """
    w = (background_sum - written_sum) / background_sum
    if w < 0.0:
        diagnostics.total += 1
        return 0.0
    return w


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
    clamp_diagnostics: ClampDiagnostics  # no default: a NamedTuple default is one shared object

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
        diagnostics = ClampDiagnostics()
        weights = tuple(
            extract_weight(b, w, diagnostics) for b, w in zip(backgrounds, writtens)
        )
        contributions = tuple(b - w for b, w in zip(backgrounds, writtens))
        return cls(
            background_sums=backgrounds,
            written_sums=writtens,
            weights=weights,
            threshold_background=threshold_background,
            threshold_written=threshold_written,
            threshold=threshold_background - threshold_written,
            contributions=contributions,
            clamp_diagnostics=diagnostics,
        )

    @property
    def row(self) -> tuple:
        """The state as its artifacts print it, in STATE_KEYS order."""
        return (
            self.background_sums, self.written_sums, self.weights, self.threshold_background,
            self.threshold_written, self.threshold, self.clamp_diagnostics.total, 0,
        )
