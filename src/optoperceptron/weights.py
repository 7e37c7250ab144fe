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
    """Counts of weight values pushed back into [0, 1] by noise."""

    low: int = 0
    high: int = 0

    @property
    def total(self) -> int:
        return self.low + self.high


def extract_weight(
    background_sum: float,
    written_sum: float,
    diagnostics: ClampDiagnostics | None = None,
) -> float:
    """(I_B - I_W) / I_B, clamped to [0, 1].

    Clamping events (noise pushing the raw ratio outside the unit interval)
    are tallied in diagnostics when given.
    """
    if background_sum <= 0:
        raise DegenerateBackgroundError(
            f"background sum must be positive, got {background_sum}"
        )
    if written_sum < 0:
        raise ValueError("written sum must be >= 0")
    w = (background_sum - written_sum) / background_sum
    if w < 0.0:
        if diagnostics is not None:
            diagnostics.low += 1
        return 0.0
    if w > 1.0:
        if diagnostics is not None:
            diagnostics.high += 1
        return 1.0
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
        if len(backgrounds) != len(writtens):
            raise ValueError("background and written sums must pair up")
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
