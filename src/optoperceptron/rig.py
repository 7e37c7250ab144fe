"""Hardware-emulation rig: nine weight sites plus one threshold site.

Sequencing mirrors the physical bench: shutter-gated pulse packets write a
site, the probe path renders a stack of ten ROI frames that is averaged and
integrated, and every write/read lands in an energy ledger. The shutter
delivers a jittered pulse count per packet; that jitter is the hardware
realization of the stochastic learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateBackgroundError
from .optics import (
    CameraConfig,
    OpticalConstants,
    Roi,
    SpotGeometry,
    average_frames,
    expose_frames,
    integrate_roi,
    spot_pixel_mask,
)
from .synapse import Helicity, InhomogeneityParams, SynapseSite, apply_packet, fresh_site
from .trainer import Action, Pattern, UpdateRecord, pattern_output
from .weights import WeightState

N_WEIGHT_SITES = 9
THRESHOLD_SITE = 9  # index of the threshold area in the 10-site array
SITE_LABELS = tuple(f"w{i + 1}" for i in range(N_WEIGHT_SITES)) + ("b",)


@dataclass(frozen=True)
class ShutterModel:
    """Programmable shutter gating the write beam."""

    open_time_min_ms: float = 15.0
    open_time_max_ms: float = 25.0
    repetition_rate_hz: float = 1000.0
    nominal_packet_pulses: int = 50
    jitter_mode: str = "relative"
    jitter_enabled: bool = True

    def __post_init__(self):
        if not 0 < self.open_time_min_ms <= self.open_time_max_ms:
            raise ConfigurationError("shutter opening range must satisfy 0 < min <= max")
        if self.repetition_rate_hz <= 0:
            raise ConfigurationError("repetition_rate_hz must be > 0")
        if self.nominal_packet_pulses < 1:
            raise ConfigurationError("nominal_packet_pulses must be >= 1")
        if self.jitter_mode not in ("relative", "time"):
            raise ConfigurationError("jitter_mode must be 'relative' or 'time'")


def shutter_pulses(rng: np.random.Generator, model: ShutterModel, n: int) -> list[int]:
    """Pulses delivered by n shutter openings; each at least 1.

    "time" derives each count from a uniformly drawn opening time at the
    repetition rate; "relative" scales the nominal packet by a uniform
    factor in (0, 1], mirroring the learning-rate range. One batched draw
    yields the same values as n scalar draws; disabled jitter draws nothing.
    """
    if not model.jitter_enabled:
        return [model.nominal_packet_pulses] * n
    if model.jitter_mode == "time":
        rate = model.repetition_rate_hz
        openings_ms = rng.uniform(model.open_time_min_ms, model.open_time_max_ms, n)
        counts = [round(rate * (ms / 1000.0)) for ms in openings_ms.tolist()]
    else:
        nominal = model.nominal_packet_pulses
        counts = [round(nominal * (1.0 - u)) for u in rng.random(n).tolist()]  # (0, 1]
    return [max(c, 1) for c in counts]


def energy_per_pulse(pulse_energy_j: float, waist_um: float, diameter_um: float) -> float:
    """Pulse energy apportioned to a written spot by its area fraction of the waist."""
    ratio = diameter_um / waist_um
    return pulse_energy_j * ratio * ratio


@dataclass
class WriteEvent:
    site: str
    pulses: int
    per_pulse_j: float

    @property
    def energy_j(self) -> float:
        return self.pulses * self.per_pulse_j


@dataclass
class EnergyLedger:
    """Additive, order-independent energy accounting of a run."""

    per_read_j: float = 0.4e-9
    write_events: list[WriteEvent] = field(default_factory=list)
    read_events: int = 0

    def add_writes(self, site: str, pulses: Sequence[int], per_pulse_j: float) -> None:
        """One write event per packet, in delivery order."""
        if per_pulse_j < 0 or any(p < 0 for p in pulses):
            raise ValueError("pulses and per-pulse energy must be >= 0")
        self.write_events.extend(WriteEvent(site, p, per_pulse_j) for p in pulses)

    def add_reads(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("read count must be >= 0")
        self.read_events += n

    @property
    def total_pulses(self) -> int:
        return sum(e.pulses for e in self.write_events)

    @property
    def write_energy_j(self) -> float:
        return sum(e.energy_j for e in self.write_events)

    @property
    def read_energy_j(self) -> float:
        return self.read_events * self.per_read_j

    @property
    def total_energy_j(self) -> float:
        return self.write_energy_j + self.read_energy_j

    def to_json_dict(self) -> dict:
        return {
            "per_read_j": self.per_read_j,
            "read_events": self.read_events,
            "total_pulses": self.total_pulses,
            "write_energy_j": self.write_energy_j,
            "read_energy_j": self.read_energy_j,
            "total_energy_j": self.total_energy_j,
            "write_events": [
                {"site": e.site, "pulses": e.pulses, "per_pulse_j": e.per_pulse_j}
                for e in self.write_events
            ],
        }

    def summary_line(self) -> str:
        return (
            f"pulses={self.total_pulses} "
            f"write={self.write_energy_j * 1e9:.3f}nJ "
            f"reads={self.read_events} "
            f"read={self.read_energy_j * 1e9:.3f}nJ "
            f"total={self.total_energy_j * 1e9:.3f}nJ"
        )


@dataclass(frozen=True)
class RigConfig:
    """Site layout and write/read protocol of the emulated bench."""

    init_weight_packets: int = 50
    init_threshold_packets: int = 250
    learning_packets: int = 2
    frames_per_read: int = 10
    roi_width_um: float = 16.5
    roi_height_um: float = 15.5
    spot_diameter_um: float = 10.0
    site_spacing_um: float = 48.0

    def __post_init__(self):
        if min(self.init_weight_packets, self.init_threshold_packets) < 0:
            raise ConfigurationError("packet counts must be >= 0")
        if self.learning_packets < 1:
            raise ConfigurationError("learning_packets must be >= 1")
        if self.frames_per_read < 1:
            raise ConfigurationError("frames_per_read must be >= 1")
        if self.roi_width_um <= 0 or self.roi_height_um <= 0:
            raise ConfigurationError("roi dimensions must be > 0")
        if self.spot_diameter_um <= 0:
            raise ConfigurationError("spot_diameter_um must be > 0")


class Rig:
    """One logical actor owning the 10-site sample array and the beams."""

    def __init__(
        self,
        site_params: Sequence[InhomogeneityParams],
        constants: OpticalConstants,
        camera: CameraConfig,
        rig_config: RigConfig,
        shutter: ShutterModel,
        shutter_rng: np.random.Generator,
        camera_rng: np.random.Generator,
        per_pulse_write_j: float = 0.0,
        per_read_j: float = 0.4e-9,
    ):
        if len(site_params) != N_WEIGHT_SITES + 1:
            raise ValueError(
                f"need {N_WEIGHT_SITES + 1} site parameter sets, got {len(site_params)}"
            )
        self.constants = constants
        self.sensor_camera = camera
        self.config = rig_config
        self.shutter = shutter
        self.shutter_rng = shutter_rng
        self.camera_rng = camera_rng
        self.per_pulse_write_j = per_pulse_write_j
        self.sites: list[SynapseSite] = [fresh_site(p) for p in site_params]
        self.background_sums: list[int] | None = None
        self.written_sums: list[int | None] = [None] * (N_WEIGHT_SITES + 1)
        self.ledger = EnergyLedger(per_read_j=per_read_j)
        self.events: list[tuple] = []

        # Per-site readout window: ROI-sized, spot centered. All sites share
        # the window geometry, so one mask serves every read.
        scale = camera.pixel_scale_um
        win_w = max(1, int(rig_config.roi_width_um / scale + 0.5))
        win_h = max(1, int(rig_config.roi_height_um / scale + 0.5))
        self.window_camera = replace(camera, width=win_w, height=win_h)
        self.window_spot = SpotGeometry(
            center_x_um=win_w * scale / 2.0,
            center_y_um=win_h * scale / 2.0,
            diameter_um=rig_config.spot_diameter_um,
        )
        self.window_roi = Roi(0, 0, win_w, win_h)
        self._window_mask = spot_pixel_mask(self.window_spot, self.window_camera)

        # One camera images the whole array, so every site must land on it.
        for i in range(N_WEIGHT_SITES + 1):
            if not camera.in_field(*self.site_position_um(i)):
                raise ConfigurationError(
                    f"site {self.label(i)} at {self.site_position_um(i)} um is outside "
                    "the sensor field of view; reduce rig.site_spacing_um"
                )

    # -- addressing ---------------------------------------------------------

    def _check_indices(self, indices: Iterable[int]) -> list[int]:
        idxs = list(indices)
        for i in idxs:
            if not 0 <= i <= THRESHOLD_SITE:
                raise ValueError(f"site index {i} outside the 10-site array")
        return idxs

    def label(self, index: int) -> str:
        return SITE_LABELS[index]

    # -- reads --------------------------------------------------------------

    def _read_site(self, index: int, background: bool = False) -> int:
        """Ten-frame averaged ROI sum of one site (one read event).

        A background read whose frames clipped at the full well cannot
        reference a weight, so it fails the run.
        """
        label = self.label(index)
        self.events.append(("stage_move", label))
        self.events.append(("mirror", "in"))
        counts, clipped = expose_frames(
            self.config.frames_per_read,
            [(self.sites[index], self.window_spot)],
            self.constants,
            self.window_camera,
            self.camera_rng,
            masks=[self._window_mask],
        )
        if background and clipped:
            raise DegenerateBackgroundError(
                f"background read of site {label} clipped at the "
                f"{self.window_camera.bit_depth}-bit full well {self.window_camera.full_well}"
            )
        total = integrate_roi(average_frames(counts), self.window_roi)
        self.events.append(("read", label))
        self.events.append(("mirror", "out"))
        self.ledger.add_reads(1)
        return total

    def capture_backgrounds(self) -> list[int]:
        """Snapshot and cache I_B for all ten sites; sites must be fresh."""
        if any(s.accumulated_pulses != 0 for s in self.sites):
            raise ValueError("backgrounds must be captured before any writing")
        self.background_sums = [
            self._read_site(i, background=True) for i in range(N_WEIGHT_SITES + 1)
        ]
        return list(self.background_sums)

    def read_sites(self, site_indices: Iterable[int]) -> dict[int, int]:
        """Re-read only the listed sites; updates the cached written sums."""
        if self.background_sums is None:
            raise ValueError("capture backgrounds before reading weights")
        sums = {}
        for i in self._check_indices(site_indices):
            value = self._read_site(i)
            self.written_sums[i] = value
            sums[i] = value
        return sums

    # -- writes -------------------------------------------------------------

    def _write_packets(self, index: int, helicity: Helicity, n_packets: int) -> list[int]:
        """Deliver shutter-gated packets to one site; returns pulses/packet.

        The conjugate shutter blocks the camera for the duration; zero-cost
        sequencing events land in the run trace.
        """
        label = self.label(index)
        events = self.events
        events.append(("stage_move", label))
        events.append(("ps2", "blocking"))
        delivered = shutter_pulses(self.shutter_rng, self.shutter, n_packets)
        site = self.sites[index]
        tag = helicity._value_  # .value is a Python-level enum property
        for pulses in delivered:
            site = apply_packet(site, helicity, pulses)
            events.append(("shutter", label, tag, pulses))
        self.sites[index] = site
        self.ledger.add_writes(label, delivered, self.per_pulse_write_j)
        events.append(("ps2", "open"))
        return delivered

    def apply_learning_update(
        self, site_indices: Iterable[int], direction: Action
    ) -> dict[int, int]:
        """Learning packets on the pattern's active sites; returns pulses/site."""
        if direction is Action.RAISE_OUTPUT:
            helicity = Helicity.WRITE
        elif direction is Action.LOWER_OUTPUT:
            helicity = Helicity.ERASE
        else:
            raise ValueError("direction must be RAISE_OUTPUT or LOWER_OUTPUT")
        applied = {}
        for i in self._check_indices(site_indices):
            if i == THRESHOLD_SITE:
                raise ValueError("learning updates never address the threshold site")
            delivered = self._write_packets(i, helicity, self.config.learning_packets)
            applied[i] = sum(delivered)
        return applied

    def initialize_network(self) -> WeightState:
        """Write pre-weights and threshold from a fresh sample, read all sites.

        Backgrounds are captured first, each weight site then receives the
        configured packet budget and the threshold site five times as many
        (with defaults), and a full read returns the initial state.
        """
        if self.background_sums is None:
            self.capture_backgrounds()
        for i in range(N_WEIGHT_SITES):
            self._write_packets(i, Helicity.WRITE, self.config.init_weight_packets)
        self._write_packets(THRESHOLD_SITE, Helicity.WRITE, self.config.init_threshold_packets)
        self.read_sites(range(N_WEIGHT_SITES + 1))
        return self.weight_state()

    # -- state --------------------------------------------------------------

    def weight_state(self) -> WeightState:
        if self.background_sums is None or any(v is None for v in self.written_sums):
            raise ValueError("initialize the network before taking a weight state")
        return WeightState.from_sums(
            self.background_sums[:N_WEIGHT_SITES],
            self.written_sums[:N_WEIGHT_SITES],
            self.background_sums[THRESHOLD_SITE],
            self.written_sums[THRESHOLD_SITE],
        )

    def full_frame(self) -> tuple[np.ndarray, bool]:
        """All ten sites on the full sensor, for image export: counts and clip flag."""
        placed = []
        for i, site in enumerate(self.sites):
            x, y = self.site_position_um(i)
            placed.append(
                (site, SpotGeometry(x, y, self.config.spot_diameter_um))
            )
        counts, clipped = expose_frames(1, placed, self.constants, self.sensor_camera, self.camera_rng)
        return counts[0].astype(np.int64), clipped

    def site_position_um(self, index: int) -> tuple[float, float]:
        """Layout: 3x3 weight grid plus the threshold area beside it."""
        spacing = self.config.site_spacing_um
        width_um = self.sensor_camera.width * self.sensor_camera.pixel_scale_um
        height_um = self.sensor_camera.height * self.sensor_camera.pixel_scale_um
        x0 = self.config.roi_width_um
        y0 = self.config.roi_height_um
        if index == THRESHOLD_SITE:
            return (min(x0 + 2 * spacing + spacing * 0.6, width_um - x0 / 2), height_um / 2.0)
        row, col = divmod(index, 3)
        return (x0 + col * spacing * 0.85, y0 + row * spacing * 0.85)


class RigBackend:
    """Trainer backend that realizes weights as magnetization on the rig.

    Outputs and the threshold live on the raw counts scale (sums of
    I_B - I_W); the learning rate is realized as shutter-gated pulse
    packets, never sampled. threshold() is the threshold site's read, the
    value train() starts from. keep_snapshots keeps every weight state.
    """

    def __init__(self, rig: Rig, keep_snapshots: bool = False):
        self.rig = rig
        self._state = rig.initialize_network()
        self.keep_snapshots = keep_snapshots
        self.snapshots: list[dict] = []
        self._snapshot()

    def _snapshot(self) -> None:
        if self.keep_snapshots:
            self.snapshots.append(self._state.to_json_dict())

    def output(self, pattern: Pattern) -> float:
        return pattern_output(self._state.contributions, pattern)

    def threshold(self) -> float:
        return self._state.threshold

    def apply_update(self, pattern: Pattern, direction: Action) -> UpdateRecord:
        active = pattern.active_indices
        applied = self.rig.apply_learning_update(active, direction)
        self.rig.read_sites(active)
        self._state = self.rig.weight_state()
        self._snapshot()
        return UpdateRecord(pulses=tuple(applied[i] for i in active))

    def weights(self) -> tuple[float, ...]:
        return self._state.weights
