"""Hardware-emulation rig: nine weight sites plus one threshold site.

Sequencing mirrors the physical bench: shutter-gated pulse packets write a
site, the probe path renders a stack of ten ROI frames that is averaged and
integrated, and every write/read lands in an energy ledger. The shutter
delivers a jittered pulse count per packet; that jitter is the hardware
realization of the stochastic learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .optics import (
    BeamConfig,
    CameraConfig,
    Frame,
    OpticalConstants,
    Roi,
    SpotGeometry,
    average_frames,
    expose_frame,
    expose_frames,
    integrate_roi,
    spot_pixel_mask,
)
from .synapse import Helicity, InhomogeneityParams, SynapseSite, apply_packet, fresh_site, saturate
from .trainer import Action, Pattern, TrainerConfig, UpdateRecord
from .weights import WeightState, extract_threshold

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


def shutter_event(rng: np.random.Generator, model: ShutterModel) -> int:
    """Pulses delivered by one shutter opening; always at least 1.

    "time" derives the count from a uniformly drawn opening time at the
    repetition rate; "relative" scales the nominal packet by a uniform
    factor in (0, 1], mirroring the learning-rate range.
    """
    if not model.jitter_enabled:
        return model.nominal_packet_pulses
    if model.jitter_mode == "time":
        opening_s = rng.uniform(model.open_time_min_ms, model.open_time_max_ms) / 1000.0
        count = int(round(model.repetition_rate_hz * opening_s))
    else:
        factor = 1.0 - rng.random()  # (0, 1]
        count = int(round(model.nominal_packet_pulses * factor))
    return max(count, 1)


def energy_per_pulse(beam: BeamConfig, spot: SpotGeometry) -> float:
    """Pulse energy apportioned to the written spot by area fraction."""
    ratio = spot.diameter_um / beam.waist_diameter_um
    return beam.pulse_energy_j * ratio * ratio


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

    def add_write(self, site: str, pulses: int, per_pulse_j: float) -> None:
        if pulses < 0 or per_pulse_j < 0:
            raise ValueError("pulses and per-pulse energy must be >= 0")
        self.write_events.append(WriteEvent(site, pulses, per_pulse_j))

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
class EnergyConfig:
    """Costs used when accounting a training trace."""

    per_pulse_j: float
    per_read_j: float = 0.4e-9
    initialization_pulses: int = 0
    initialization_reads: int = 0


def account_run(trace, config: EnergyConfig) -> EnergyLedger:
    """Energy ledger of a completed training trace.

    Write energy sums pulses x per-pulse cost over the update events; each
    updated site counts one read (the ten-frame snapshot batch after its
    adjustment). Initialization costs are added when configured.
    """
    ledger = EnergyLedger(per_read_j=config.per_read_j)
    if config.initialization_pulses:
        ledger.add_write("init", config.initialization_pulses, config.per_pulse_j)
    ledger.add_reads(config.initialization_reads)
    for record in trace.steps:
        if record.pulses is None:
            continue
        ledger.add_write(record.pattern_id, sum(record.pulses), config.per_pulse_j)
        ledger.add_reads(len(record.pulses))
    return ledger


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
    reread_threshold: bool = False
    write_polarization: str = "right"

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
        if self.write_polarization not in ("right", "left"):
            raise ConfigurationError("write_polarization must be 'right' or 'left'")


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
        self.window_camera = CameraConfig(
            width=win_w,
            height=win_h,
            pixel_scale_um=scale,
            exposure_s=camera.exposure_s,
            gain=camera.gain,
            dark_offset=camera.dark_offset,
            read_noise=camera.read_noise,
            bit_depth=camera.bit_depth,
        )
        self.window_spot = SpotGeometry(
            center_x_um=win_w * scale / 2.0,
            center_y_um=win_h * scale / 2.0,
            diameter_um=rig_config.spot_diameter_um,
        )
        self.window_roi = Roi(0, 0, win_w, win_h)
        self._window_mask = spot_pixel_mask(self.window_spot, self.window_camera)

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

    def _read_site(self, index: int) -> int:
        """Ten-frame averaged ROI sum of one site (one read event)."""
        label = self.label(index)
        self.events.append(("stage_move", label))
        self.events.append(("mirror", "in"))
        counts, _ = expose_frames(
            self.config.frames_per_read,
            [(self.sites[index], self.window_spot)],
            self.constants,
            self.window_camera,
            self.camera_rng,
            masks=[self._window_mask],
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
        self.background_sums = [self._read_site(i) for i in range(N_WEIGHT_SITES + 1)]
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

    def _polarization(self, helicity: Helicity) -> str:
        write_pol = self.config.write_polarization
        if helicity is Helicity.WRITE:
            return write_pol
        return "left" if write_pol == "right" else "right"

    def _write_packets(self, index: int, helicity: Helicity, n_packets: int) -> list[int]:
        """Deliver shutter-gated packets to one site; returns pulses/packet.

        The conjugate shutter blocks the camera for the duration; zero-cost
        sequencing events land in the run trace.
        """
        label = self.label(index)
        self.events.append(("stage_move", label))
        self.events.append(("ps2", "blocking"))
        polarization = self._polarization(helicity)
        delivered = []
        for _ in range(n_packets):
            pulses = shutter_event(self.shutter_rng, self.shutter)
            self.sites[index] = apply_packet(self.sites[index], helicity, pulses)
            self.ledger.add_write(label, pulses, self.per_pulse_write_j)
            self.events.append(("shutter", label, helicity.value, polarization, pulses))
            delivered.append(pulses)
        self.events.append(("ps2", "open"))
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

    def reinitialize_weights(self) -> None:
        """Full erase of the nine weight sites, then rewrite and re-read."""
        for i in range(N_WEIGHT_SITES):
            self.sites[i] = saturate(self.sites[i], "background")
            self.events.append(("erase_reset", self.label(i)))
            self._write_packets(i, Helicity.WRITE, self.config.init_weight_packets)
        self.read_sites(range(N_WEIGHT_SITES))

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

    def full_frame(self, rng: np.random.Generator | None = None) -> Frame:
        """Compose all ten sites on the full sensor (for image export)."""
        placed = []
        for i, site in enumerate(self.sites):
            x, y = self.site_position_um(i)
            placed.append(
                (site, SpotGeometry(x, y, self.config.spot_diameter_um))
            )
        return expose_frame(
            placed, self.constants, self.sensor_camera,
            rng if rng is not None else self.camera_rng,
        )

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
    packets, never sampled.
    """

    def __init__(self, rig: Rig, config: TrainerConfig, keep_snapshots: bool = False):
        self.rig = rig
        self.config = config
        self._raise_factor = 1.0
        self._state = rig.initialize_network()
        self.keep_snapshots = keep_snapshots
        self.snapshots: list[dict] = []
        self._snapshot()

    def _snapshot(self) -> None:
        if self.keep_snapshots:
            self.snapshots.append(self._state.to_json_dict())

    def output(self, pattern: Pattern) -> float:
        total = 0.0
        for i in pattern.active_indices:
            total += self._state.contribution(i)
        return total

    def threshold(self) -> float:
        if self.rig.config.reread_threshold:
            self.rig.read_sites([THRESHOLD_SITE])
            self._state = self.rig.weight_state()
        base = extract_threshold(
            self._state.threshold_background, self._state.threshold_written
        )
        return base * self._raise_factor

    def apply_update(self, pattern: Pattern, direction: Action) -> UpdateRecord:
        active = pattern.active_indices
        applied = self.rig.apply_learning_update(active, direction)
        self.rig.read_sites(active)
        self._state = self.rig.weight_state()
        self._snapshot()
        return UpdateRecord(pulses=tuple(applied[i] for i in active))

    def raise_threshold(self, factor: float) -> None:
        self._raise_factor *= factor

    def weights(self) -> tuple[float, ...]:
        return self._state.weights

    def reset_weights(self) -> None:
        self.rig.reinitialize_weights()
        self._state = self.rig.weight_state()

    def weight_state(self) -> WeightState:
        return self._state
