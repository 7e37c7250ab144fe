"""Background-referenced weight extraction on the raw counts scale.

A network weight is the fractional darkening of a readout region relative to
its cached background: w = (I_B - I_W) / I_B. On the raw count scale each
site contributes I_B - I_W; the input gate is trainer.pattern_output, which
adds the contributions of the active inputs only (an inactive input reads
B - B = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegenerateBackgroundError


@dataclass
class ClampDiagnostics:
    """Counts of weight values pushed back into [0, 1] by noise. Only low
    counts: with b > 0 and w >= 0, (b - w) / b rounds to at most 1.0, so high
    stays 0; weight_state.json prints it as clamped_high and total sums it."""

    low: int = 0
    high: int = 0

    @property
    def total(self) -> int:
        return self.low + self.high


def extract_weight(
    background_sum: float, written_sum: float, diagnostics: ClampDiagnostics
) -> float:
    """(I_B - I_W) / I_B, clamped to [0, 1].

    Clamping events (noise pushing the raw ratio below 0) are tallied in
    diagnostics. The written sum is a sum of counts clipped at 0, so it is
    never negative and keeps the ratio at most 1.
    """
    if background_sum <= 0:
        raise DegenerateBackgroundError(
            f"background sum must be positive, got {background_sum}"
        )
    w = (background_sum - written_sum) / background_sum
    if w < 0.0:
        diagnostics.low += 1
        return 0.0
    return w


def extract_threshold(threshold_background_sum: float, threshold_written_sum: float) -> float:
    """Classification threshold on the same counts scale as gated inputs."""
    if threshold_background_sum <= 0:
        raise DegenerateBackgroundError(
            f"threshold background sum must be positive, got {threshold_background_sum}"
        )
    return threshold_background_sum - threshold_written_sum


@dataclass
class WeightState:
    """Snapshot of the nine extracted weights plus the threshold."""

    background_sums: tuple[float, ...]
    written_sums: tuple[float, ...]
    weights: tuple[float, ...]
    threshold_background: float
    threshold_written: float
    threshold: float
    contributions: tuple[float, ...]  # I_B - I_W per site, unclamped
    clamp_diagnostics: ClampDiagnostics = field(default_factory=ClampDiagnostics)

    @classmethod
    def from_sums(
        cls,
        background_sums,
        written_sums,
        threshold_background: float,
        threshold_written: float,
    ) -> "WeightState":
        backgrounds = tuple(float(v) for v in background_sums)
        writtens = tuple(float(v) for v in written_sums)
        threshold_background = float(threshold_background)
        threshold_written = float(threshold_written)
        diagnostics = ClampDiagnostics()
        weights = tuple(
            extract_weight(b, w, diagnostics) for b, w in zip(backgrounds, writtens)
        )
        # extract_weight has rejected every b <= 0 of these pairs already.
        contributions = tuple(b - w for b, w in zip(backgrounds, writtens))
        return cls(
            background_sums=backgrounds,
            written_sums=writtens,
            weights=weights,
            threshold_background=threshold_background,
            threshold_written=threshold_written,
            threshold=extract_threshold(threshold_background, threshold_written),
            contributions=contributions,
            clamp_diagnostics=diagnostics,
        )

    def to_json_dict(self) -> dict:
        return {
            "background_sums": list(self.background_sums),
            "written_sums": list(self.written_sums),
            "weights": list(self.weights),
            "threshold_background": self.threshold_background,
            "threshold_written": self.threshold_written,
            "threshold": self.threshold,
            "clamped_low": self.clamp_diagnostics.low,
            "clamped_high": self.clamp_diagnostics.high,
        }
