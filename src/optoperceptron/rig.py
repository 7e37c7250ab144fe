"""Hardware-emulation rig: nine weight sites plus one threshold site.

Sequencing mirrors the physical bench: shutter-gated pulse packets write a
site, the probe path renders a stack of ten ROI frames that is averaged and
integrated, and every write/read lands in an energy ledger. The shutter
delivers a jittered pulse count per packet; that jitter is the hardware
realization of the stochastic learning rate. The rig owns the readout
geometry: it places every spot, builds each pixel mask and checks that every
site lands on the sensor, and hands the optics kernel (site, mask) scenes.
In emulate the rig itself is the trainer's weight backend: it holds the
current weight state and, when asked, keeps a snapshot of every state.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateBackgroundError
from .optics import (
    CameraConfig,
    OpticalConstants,
    average_frames,
    digitize_frames,
    draw_read_noise,
    expose_frames,
    integrate_roi,
    spot_pixel_mask,
)
from .patterns import GRID_SIDE, N_INPUTS, Pattern
from .synapse import ERASE, WRITE, InhomogeneityParams, SynapseSite, apply_packet, fresh_site
from .trainer import RAISE_OUTPUT
from .weights import WeightState

N_WEIGHT_SITES = N_INPUTS
THRESHOLD_SITE = N_WEIGHT_SITES  # index of the threshold area, the last of the site array
SITE_LABELS = tuple(f"w{i + 1}" for i in range(N_WEIGHT_SITES)) + ("b",)


class ShutterModel(NamedTuple):
    """Programmable shutter gating the write beam."""

    open_time_min_ms: float
    open_time_max_ms: float
    repetition_rate_hz: float
    nominal_packet_pulses: int
    jitter_mode: str
    jitter_enabled: bool


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
        return [max(round(rate * (ms / 1000.0)), 1) for ms in openings_ms.tolist()]
    nominal = model.nominal_packet_pulses
    return [max(round(nominal * (1.0 - u)), 1) for u in rng.random(n).tolist()]  # (0, 1]


# The artifact name of each field of a write event, in row order.
WRITE_EVENT_KEYS = ("site", "pulses", "per_pulse_j")


class LedgerTotals(NamedTuple):
    """The totals ledger.json prints, each under its field name."""

    per_read_j: float
    read_events: int
    total_pulses: int
    write_energy_j: float
    read_energy_j: float
    total_energy_j: float

    def summary_line(self) -> str:
        """The one-line account that ledger.txt and energy.txt print."""
        return (
            f"pulses={self.total_pulses} "
            f"write={self.write_energy_j * 1e9:.3f}nJ "
            f"reads={self.read_events} "
            f"read={self.read_energy_j * 1e9:.3f}nJ "
            f"total={self.total_energy_j * 1e9:.3f}nJ"
        )


class EnergyLedger:
    """Energy accounting of a run at one read and one per-pulse write price,
    kept as its op log: one entry per operation, in order.

    A read entry is ("read", site labels); a write entry is ("write", site,
    helicity tag, pulses per packet in delivery order). The counts are
    order-independent. The energies are not, since float addition is not
    associative: each is the fold of its terms in delivery order, which is
    what keeps them byte-stable. The per-packet write events and the totals
    are derived from the log in packet order.
    """

    def __init__(self, per_read_j: float, per_pulse_j: float):
        self.per_read_j = per_read_j
        self.per_pulse_j = per_pulse_j
        self.ops: list[tuple] = []

    def add_writes(self, site: str, helicity: str, pulses: Sequence[int]) -> None:
        """One write entry; the ledger keeps the pulses sequence it is given."""
        self.ops.append(("write", site, helicity, pulses))

    def add_reads(self, sites: Sequence[str]) -> None:
        """One read entry billing one read per listed site."""
        self.ops.append(("read", sites))

    def packets(self) -> Iterator[tuple[str, int, float]]:
        """(site, pulses, per-pulse energy) of every packet, in delivery order:
        the fields of a write event, in WRITE_EVENT_KEYS order."""
        for op in self.ops:
            if op[0] == "write":
                _, site, _, pulses = op
                for p in pulses:
                    yield site, p, self.per_pulse_j

    @property
    def write_events(self) -> list[tuple[str, int, float]]:
        return list(self.packets())

    @property
    def read_events(self) -> int:
        return sum(len(op[1]) for op in self.ops if op[0] == "read")

    def totals(self) -> LedgerTotals:
        """Every total from one walk of the op log."""
        per_pulse_j = self.per_pulse_j
        reads = pulses = 0
        write_j = 0  # a left fold from the int 0: sum() compensates float rounding from Python 3.12
        for op in self.ops:
            if op[0] == "read":
                reads += len(op[1])
            else:
                for p in op[3]:
                    pulses += p
                    write_j += p * per_pulse_j
        read_j = reads * self.per_read_j
        return LedgerTotals(self.per_read_j, reads, pulses, write_j, read_j, write_j + read_j)


class RigConfig(NamedTuple):
    """Site layout and write/read protocol of the emulated bench."""

    init_weight_packets: int
    init_threshold_packets: int
    learning_packets: int
    frames_per_read: int
    roi_width_um: float
    roi_height_um: float
    spot_diameter_um: float
    site_spacing_um: float


class Rig:
    """One logical actor owning the site sample array and the beams, and
    in emulate the trainer's WeightBackend. gate() is the current weight
    state's count-scale contributions (I_B - I_W per site), so outputs and
    the threshold live on the raw counts scale; threshold() is the threshold
    site's read, the value train() starts from. The learning rate is realized
    as shutter-gated pulse packets, never sampled. initialize_network and
    apply_update set state, and append it to snapshots if a list.
    """

    def __init__(
        self,
        site_params: Sequence[InhomogeneityParams],
        constants: OpticalConstants,
        camera: CameraConfig,
        rig_config: RigConfig,
        shutter: ShutterModel,
        shutter_rng: np.random.Generator,
        camera_rng: np.random.Generator,
        ledger: EnergyLedger,
    ):
        self.constants = constants
        self.sensor_camera = camera
        self.config = rig_config
        self.shutter = shutter
        self.shutter_rng = shutter_rng
        self.camera_rng = camera_rng
        self.sites: list[SynapseSite] = [fresh_site(p) for p in site_params]
        self.background_sums: list[int] | None = None
        self.written_sums: list[int | None] = [None] * (N_WEIGHT_SITES + 1)
        self.ledger = ledger
        self.state: WeightState | None = None
        self.snapshots: list[WeightState] | None = None

        # Per-site readout window: the ROI, spot centered. All sites share
        # the window geometry, so one mask serves every read.
        scale = camera.pixel_scale_um
        self.window_camera = window = camera.window(rig_config.roi_width_um, rig_config.roi_height_um)
        self._window_mask = spot_pixel_mask(
            window.width * scale / 2.0, window.height * scale / 2.0, rig_config.spot_diameter_um, window,
        )
        if not self._window_mask.any():
            raise ConfigurationError(
                f"a {rig_config.spot_diameter_um} um spot covers no pixel center of the "
                f"{window.width}x{window.height} readout window at {scale} um per pixel, so no read "
                "could see a weight; increase rig.spot_diameter_um"
            )

        # One camera images the whole array, so every site must land on it.
        for i in range(N_WEIGHT_SITES + 1):
            if not camera.in_field(*self.site_position_um(i)):
                raise ConfigurationError(
                    f"site {SITE_LABELS[i]} at {self.site_position_um(i)} um is outside "
                    "the sensor field of view; reduce rig.site_spacing_um"
                )

    # -- reads --------------------------------------------------------------

    def _read(self, indices: Sequence[int]) -> tuple[list[int], list[bool]]:
        """Ten-frame averaged ROI sums of the listed sites, one read event
        each, and per site whether any of its frames clipped at the full well.

        One read-noise draw covers every frame of every listed site. Each
        site is exposed into its slice of that block, and the block is then
        digitized, averaged and integrated at once.
        """
        camera = self.window_camera
        n_frames = self.config.frames_per_read
        block = draw_read_noise(self.camera_rng, camera, len(indices), n_frames)
        sites, mask, constants = self.sites, self._window_mask, self.constants
        for i, noise in zip(indices, block):
            expose_frames(n_frames, [(sites[i], mask)], constants, camera, noise)
        clipped = digitize_frames(block, camera)
        self.ledger.add_reads([SITE_LABELS[i] for i in indices])
        return integrate_roi(average_frames(block)), clipped

    def capture_backgrounds(self) -> list[int]:
        """Snapshot and cache I_B for every site, before any write.

        This is the one place a background is judged. One that clipped at the
        full well, or that sums to 0 or less, cannot reference a weight, so
        it fails the run: the first clipped site in site order, else the
        first site summing to 0 or less. Every cached background is > 0.
        """
        sums, clipped = self._read(range(N_WEIGHT_SITES + 1))
        camera = self.window_camera
        if True in clipped:
            raise DegenerateBackgroundError(
                f"background read of site {SITE_LABELS[clipped.index(True)]} clipped at the "
                f"{camera.bit_depth}-bit full well {camera.full_well}"
            )
        for label, total in zip(SITE_LABELS, sums):
            if total <= 0:
                raise DegenerateBackgroundError(
                    f"background read of site {label}: background sum must be positive, got {total}"
                )
        self.background_sums = sums
        return list(sums)

    def read_sites(self, site_indices: Sequence[int]) -> dict[int, int]:
        """Re-read only the listed sites; updates the cached written sums."""
        sums = dict(zip(site_indices, self._read(site_indices)[0]))
        for i, value in sums.items():
            self.written_sums[i] = value
        return sums

    # -- writes -------------------------------------------------------------

    def _write_sites(
        self, indices: Sequence[int], helicity: str, packets: Sequence[int]
    ) -> dict[int, int]:
        """packets[k] gated packets on site indices[k], in order; returns pulses/site.

        One shutter draw covers every packet and is split across the sites in
        delivery order, which equals one draw per site. The conjugate shutter
        blocks the camera while a site is written; each site's packets are one
        ledger entry, from which Rig.events renders its sequencing events.
        """
        delivered = shutter_pulses(self.shutter_rng, self.shutter, sum(packets))
        applied = {}
        start = 0
        for i, n in zip(indices, packets):
            site_pulses = delivered[start : start + n]
            start += n
            site = self.sites[i]
            for pulses in site_pulses:
                site = apply_packet(site, helicity, pulses)
            self.sites[i] = site
            self.ledger.add_writes(SITE_LABELS[i], helicity, site_pulses)
            applied[i] = sum(site_pulses)
        return applied

    def apply_learning_update(
        self, site_indices: Sequence[int], direction: str
    ) -> dict[int, int]:
        """Learning packets on the pattern's active sites; returns pulses/site."""
        helicity = WRITE if direction == RAISE_OUTPUT else ERASE
        packets = [self.config.learning_packets] * len(site_indices)
        return self._write_sites(site_indices, helicity, packets)

    def initialize_network(self) -> WeightState:
        """Write pre-weights and threshold from a fresh sample, read all sites.

        Backgrounds are captured first, each weight site then receives the
        configured packet budget and the threshold site five times as many
        (with defaults), and a full read returns the initial state. A
        threshold read <= 0 judges no pattern, so it fails the run.
        """
        self.capture_backgrounds()
        budgets = [self.config.init_weight_packets] * N_WEIGHT_SITES
        budgets.append(self.config.init_threshold_packets)
        self._write_sites(range(N_WEIGHT_SITES + 1), WRITE, budgets)
        self.read_sites(range(N_WEIGHT_SITES + 1))
        state = self._take_state()
        if state.threshold <= 0:
            raise ConfigurationError(
                f"the threshold reads {state.threshold} after initialization: its background "
                f"sum {state.threshold_background} minus its written sum {state.threshold_written}"
            )
        return state

    # -- trainer backend ------------------------------------------------------

    def gate(self) -> tuple[float, ...]:
        return self.state.contributions

    def threshold(self) -> float:
        return self.state.threshold

    def apply_update(self, pattern: Pattern, direction: str) -> tuple:
        active = pattern.active_indices
        applied = self.apply_learning_update(active, direction)
        self.read_sites(active)
        state = self._take_state()
        return None, tuple(applied[i] for i in active), state.contributions, state.weights

    def weights(self) -> tuple[float, ...]:
        return self.state.weights

    # -- state --------------------------------------------------------------

    @property
    def events(self) -> list[tuple]:
        """The bench sequence of every read and write so far, rendered from
        the ledger's op log on each call. A read visits each of its sites in
        turn (stage move, mirror in, read, mirror out); a write moves to its
        site, blocks the camera, opens the shutter once per packet and
        unblocks the camera."""
        events = []
        for op in self.ledger.ops:
            if op[0] == "read":
                for label in op[1]:
                    events += (("stage_move", label), ("mirror", "in"),
                               ("read", label), ("mirror", "out"))
            else:
                _, label, tag, pulses = op
                events += (("stage_move", label), ("ps2", "blocking"))
                events += [("shutter", label, tag, p) for p in pulses]
                events.append(("ps2", "open"))
        return events

    def _take_state(self) -> WeightState:
        """The weight state of the cached sums, kept as state (and snapshotted)."""
        self.state = self.weight_state()
        if self.snapshots is not None:
            self.snapshots.append(self.state)
        return self.state

    def weight_state(self) -> WeightState:
        return WeightState.from_sums(
            self.background_sums[:N_WEIGHT_SITES],
            self.written_sums[:N_WEIGHT_SITES],
            self.background_sums[THRESHOLD_SITE],
            self.written_sums[THRESHOLD_SITE],
        )

    def full_frame(self) -> tuple[np.ndarray, bool]:
        """Every site on the full sensor, for image export: counts and clip flag."""
        camera, diameter = self.sensor_camera, self.config.spot_diameter_um
        scene = [
            (site, spot_pixel_mask(*self.site_position_um(i), diameter, camera))
            for i, site in enumerate(self.sites)
        ]
        block = draw_read_noise(self.camera_rng, camera, 1, 1)
        expose_frames(1, scene, self.constants, camera, block[0])
        [clipped] = digitize_frames(block, camera)
        return block[0, 0].astype(np.int64), clipped

    def site_position_um(self, index: int) -> tuple[float, float]:
        """Layout: 3x3 weight grid plus the threshold area beside it."""
        spacing = self.config.site_spacing_um
        width_um = self.sensor_camera.width * self.sensor_camera.pixel_scale_um
        height_um = self.sensor_camera.height * self.sensor_camera.pixel_scale_um
        x0 = self.config.roi_width_um
        y0 = self.config.roi_height_um
        if index == THRESHOLD_SITE:
            return (min(x0 + 2 * spacing + spacing * 0.6, width_um - x0 / 2), height_um / 2.0)
        row, col = divmod(index, GRID_SIDE)
        return (x0 + col * spacing * 0.85, y0 + row * spacing * 0.85)
