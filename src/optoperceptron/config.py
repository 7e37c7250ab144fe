"""Run configuration: flat key-value text with section prefixes.

Example line: ``trainer.eta_max = 0.014``. Unknown keys are rejected with
the offending line number; every numeric value is range-checked. The
resolved configuration can be echoed back to text, which is what run
outputs ship so a run is reproducible from (config, seed) alone.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import ConfigurationError
from .patterns import CLASSES, DEFAULT_BITMAPS, parse_bitmap_text
from .synapse import CURVE_FAMILIES, InhomogeneityParams
from .trainer import TrainerConfig

if TYPE_CHECKING:  # the accessors import these, so a run that renders nothing loads no numpy
    from .optics import CameraConfig, OpticalConstants
    from .rig import RigConfig, ShutterModel

SMALL_ANGLE_LIMIT = 0.2  # radians; beyond this the small-angle readout chain is invalid


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int(lo=None, hi=None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if lo is not None and value < lo:
            raise ValueError(f"{value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"{value} is above the maximum {hi}")
        return value

    return parse


def _float(lo=None, hi=None, lo_open=False) -> Callable[[str], float]:
    def parse(text: str) -> float:
        value = float(text)
        if math.isnan(value):  # every bound comparison below is false for NaN
            raise ValueError(f"expected a number, got {text!r}")
        if lo is not None and (value <= lo if lo_open else value < lo):
            raise ValueError(f"{value} must be above {lo}" if lo_open else f"{value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"{value} is above the maximum {hi}")
        return value

    return parse


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = text.strip().lower()
        if value not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return value

    return parse


def _optional(inner: Callable[[str], object]) -> Callable[[str], object]:
    def parse(text: str):
        if text.strip().lower() in ("", "none", "auto"):
            return None
        return inner(text)

    return parse


def _string(text: str) -> str:
    return text.strip()


def nanojoules(value: float) -> float:
    """Exact decimal rescale nJ -> J.

    Multiplying by 1e-9 would not reproduce the literal (0.4 * 1e-9 differs
    from 0.4e-9 in the last bit), and the ledger bills reads at exactly the
    configured cost.
    """
    return float(Decimal(repr(value)).scaleb(-9))


def energy_per_pulse(pulse_energy_j: float, waist_um: float, diameter_um: float) -> float:
    """Pulse energy apportioned to a written spot by its area fraction of the waist."""
    ratio = diameter_um / waist_um
    return pulse_energy_j * ratio * ratio


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: object
    doc: str


# Every accepted key, its parser/bounds, default, and one-line meaning.
KEY_TABLE: dict[str, _Key] = {
    "run.seed": _Key(_int(0), 0, "master seed; all random streams derive from it"),
    "run.trace_verbosity": _Key(_int(0, 2), 1, "0 summary, 1 full trace, 2 + per-step weight snapshots"),
    "run.dump_frames": _Key(_bool, False, "write PGM frames during emulate runs"),
    "trainer.initial_weight": _Key(_float(0.0, 100.0), 0.5, "starting value of every weight"),
    "trainer.initial_threshold": _Key(_float(0.0, 1e9, lo_open=True), 2.5, "starting classification threshold"),
    "trainer.eta_max": _Key(_float(0.0, 1.0, lo_open=True), 0.014, "learning rates are drawn from (0, eta_max]"),
    "trainer.eta_fixed": _Key(_optional(_float(0.0, 1.0, lo_open=True)), None, "fix the learning rate (disables sampling)"),
    "trainer.max_epochs": _Key(_int(1, 1_000_000), 500, "epoch cap before giving up"),
    "trainer.target_class": _Key(_choice(*CLASSES), "v", "class whose outputs must exceed the threshold"),
    "trainer.threshold_raise": _Key(_float(0.0, 1.0, lo_open=True), 0.05, "relative threshold raise on negative weights"),
    "dataset.bitmaps_file": _Key(_string, "builtin", "path to a 3-block bitmap file, or 'builtin'"),
    "synapse.dead_zone_pulses": _Key(_int(0, 1_000_000), 250, "pulses with no magnetization response"),
    "synapse.saturation_pulses": _Key(_int(1, 10_000_000), 600, "pulses to full saturation"),
    "synapse.curve": _Key(_choice(*sorted(CURVE_FAMILIES)), "smoothstep", "response curve family"),
    "synapse.margin_pulses": _Key(_optional(_int(0)), None, "odometer headroom above saturation (auto = saturation)"),
    "synapse.site_spread": _Key(_float(0.0, 0.9), 0.05, "relative site-to-site parameter spread"),
    "shutter.open_time_min_ms": _Key(_float(0.0, 1e4, lo_open=True), 15.0, "shortest shutter opening"),
    "shutter.open_time_max_ms": _Key(_float(0.0, 1e4, lo_open=True), 25.0, "longest shutter opening"),
    "shutter.repetition_rate_hz": _Key(_float(0.0, 1e9, lo_open=True), 1000.0, "write laser repetition rate (also sets pulse energy)"),
    "shutter.nominal_packet_pulses": _Key(_int(1, 1_000_000), 50, "nominal pulses per packet"),
    "shutter.jitter_mode": _Key(_choice("relative", "time"), "relative", "packet jitter model"),
    "shutter.jitter_enabled": _Key(_bool, True, "disable for exactly nominal packets"),
    "rig.init_weight_packets": _Key(_int(0, 100_000), 50, "packets written per weight site at init"),
    "rig.init_threshold_packets": _Key(_int(0, 100_000), 250, "packets written to the threshold site at init"),
    "rig.learning_packets": _Key(_int(1, 1000), 2, "packets per weight update"),
    "rig.frames_per_read": _Key(_int(1, 1000), 10, "frames averaged per site read"),
    "rig.roi_width_um": _Key(_float(0.0, 1e4, lo_open=True), 16.5, "readout window width on the sample"),
    "rig.roi_height_um": _Key(_float(0.0, 1e4, lo_open=True), 15.5, "readout window height on the sample"),
    "rig.spot_diameter_um": _Key(_float(0.0, 1e4, lo_open=True), 10.0, "written spot diameter"),
    "rig.site_spacing_um": _Key(_float(0.0, 1e4, lo_open=True), 48.0, "spacing of the site array layout"),
    "optics.delta_rad": _Key(_float(0.0, SMALL_ANGLE_LIMIT, lo_open=True), 0.1, "analyzer offset from extinction"),
    "optics.intensity_in": _Key(_float(0.0, 1e30, lo_open=True), 4.0e6, "probe intensity at the sample"),
    "camera.width_px": _Key(_int(1, 65536), 166, "sensor window width"),
    "camera.height_px": _Key(_int(1, 65536), 128, "sensor window height"),
    "camera.pixel_scale_um": _Key(_float(0.0, 1e3, lo_open=True), 1.0, "sample-plane size of one pixel"),
    "camera.exposure_ms": _Key(_float(0.0, 1e6, lo_open=True), 10.0, "exposure time per frame"),
    "camera.gain": _Key(_float(0.0, 1e12, lo_open=True), 100.0, "counts per unit light density"),
    "camera.dark_offset": _Key(_float(0.0, 1e9), 600.0, "dark level in counts"),
    "camera.read_noise": _Key(_float(0.0, 1e6), 50.0, "Gaussian read noise sigma in counts"),
    "camera.bit_depth": _Key(_int(8, 32), 16, "ADC bit depth"),
    "energy.write_power_uw": _Key(_float(0.0, 1e9), 0.56, "calibrated write power for energy accounting"),
    "energy.waist_um": _Key(_float(0.0, 1e6, lo_open=True), 100.0, "write beam waist diameter"),
    "energy.spot_small_um": _Key(_float(0.0, 1e6, lo_open=True), 25.0, "smaller reference spot diameter"),
    "energy.spot_large_um": _Key(_float(0.0, 1e6, lo_open=True), 40.0, "larger reference spot diameter"),
    "energy.read_nj": _Key(_float(0.0, 1e9), 0.4, "energy per site read"),
    "sweep.seeds": _Key(_int(1, 100_000), 50, "number of seeds in a sweep"),
    "sweep.mode": _Key(_choice("simulate", "emulate"), "simulate", "which runner the sweep drives"),
}


def parse_config_text(text: str) -> list[tuple[str, str, str]]:
    """(key, raw value, "line n") per setting; syntax errors carry the line."""
    entries: dict[str, tuple[str, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (key, value, f"line {lineno}")
    return list(entries.values())


@dataclass
class RunConfig:
    """Fully resolved run configuration plus derived typed objects.

    The accessors below are the only builders of the typed configs, which
    carry no defaults or checks of their own: KEY_TABLE and _cross_validate
    own every default and bound."""

    values: dict[str, object]
    bitmaps: dict[str, tuple[str, str, str]]

    def __getitem__(self, key: str):
        return self.values[key]

    # -- derived objects ----------------------------------------------------

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            initial_weight=self["trainer.initial_weight"],
            initial_threshold=self["trainer.initial_threshold"],
            eta_max=self["trainer.eta_max"],
            eta_fixed=self["trainer.eta_fixed"],
            max_epochs=self["trainer.max_epochs"],
            target_class=self["trainer.target_class"],
            threshold_raise=self["trainer.threshold_raise"],
        )

    def nominal_site_params(self) -> InhomogeneityParams:
        return InhomogeneityParams(
            dead_zone_pulses=self["synapse.dead_zone_pulses"],
            saturation_pulses=self["synapse.saturation_pulses"],
            background_gain=1.0,
            curve=self["synapse.curve"],
            margin_pulses=self["synapse.margin_pulses"],
        )

    def optical_constants(self) -> OpticalConstants:
        from .optics import OpticalConstants

        return OpticalConstants(
            delta=self["optics.delta_rad"],
            intensity_in=self["optics.intensity_in"],
        )

    def camera_config(self) -> CameraConfig:
        from .optics import CameraConfig

        return CameraConfig(
            width=self["camera.width_px"],
            height=self["camera.height_px"],
            pixel_scale_um=self["camera.pixel_scale_um"],
            exposure_s=self["camera.exposure_ms"] / 1000.0,
            gain=self["camera.gain"],
            dark_offset=self["camera.dark_offset"],
            read_noise=self["camera.read_noise"],
            bit_depth=self["camera.bit_depth"],
        )

    def shutter_model(self) -> ShutterModel:
        from .rig import ShutterModel

        return ShutterModel(
            open_time_min_ms=self["shutter.open_time_min_ms"],
            open_time_max_ms=self["shutter.open_time_max_ms"],
            repetition_rate_hz=self["shutter.repetition_rate_hz"],
            nominal_packet_pulses=self["shutter.nominal_packet_pulses"],
            jitter_mode=self["shutter.jitter_mode"],
            jitter_enabled=self["shutter.jitter_enabled"],
        )

    def rig_config(self) -> RigConfig:
        from .rig import RigConfig

        return RigConfig(
            init_weight_packets=self["rig.init_weight_packets"],
            init_threshold_packets=self["rig.init_threshold_packets"],
            learning_packets=self["rig.learning_packets"],
            frames_per_read=self["rig.frames_per_read"],
            roi_width_um=self["rig.roi_width_um"],
            roi_height_um=self["rig.roi_height_um"],
            spot_diameter_um=self["rig.spot_diameter_um"],
            site_spacing_um=self["rig.site_spacing_um"],
        )

    def per_read_j(self) -> float:
        return nanojoules(self["energy.read_nj"])

    def per_pulse_j(self, diameter_um: float) -> float:
        """Write energy of one pulse on a spot of the given diameter: the
        calibrated power at the shutter's repetition rate, by area fraction."""
        pulse_energy_j = self["energy.write_power_uw"] * 1e-6 / self["shutter.repetition_rate_hz"]
        return energy_per_pulse(pulse_energy_j, self["energy.waist_um"], diameter_um)

    # -- echo ---------------------------------------------------------------

    def to_text(self) -> str:
        lines = ["# resolved configuration"]
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                rendered = "none"
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            else:
                rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def _read_text(path: str | Path) -> str:
    """A config or bitmap file as UTF-8 text, whatever the host locale. A
    leading byte-order mark is dropped, and an error names the file's own
    byte offset, the mark included."""
    data = Path(path).read_bytes()
    skipped = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[skipped:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {skipped + exc.start})"
        ) from exc


def load_config(
    config_path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Resolve defaults, an optional config file, and CLI overrides in order."""
    values: dict[str, object] = {key: spec.default for key, spec in KEY_TABLE.items()}
    entries = parse_config_text(_read_text(config_path)) if config_path is not None else []
    entries += [(key, raw, "override") for key, raw in (overrides or {}).items()]
    for key, raw, where in entries:
        if key not in KEY_TABLE:
            raise ConfigurationError(f"{where}: unknown key {key!r}")
        try:
            values[key] = KEY_TABLE[key].parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {key}: {exc}") from exc

    _cross_validate(values)

    bitmaps_file = values["dataset.bitmaps_file"]
    if bitmaps_file == "builtin":
        bitmaps = dict(DEFAULT_BITMAPS)
    else:
        path = Path(bitmaps_file)
        if not path.exists():
            raise ConfigurationError(f"dataset.bitmaps_file: no such file {bitmaps_file!r}")
        bitmaps = parse_bitmap_text(_read_text(path))
    return RunConfig(values=values, bitmaps=bitmaps)


def _cross_validate(values: dict[str, object]) -> None:
    if values["synapse.saturation_pulses"] <= values["synapse.dead_zone_pulses"]:
        raise ConfigurationError(
            "synapse.saturation_pulses must exceed synapse.dead_zone_pulses"
        )
    if values["shutter.open_time_min_ms"] > values["shutter.open_time_max_ms"]:
        raise ConfigurationError("shutter.open_time_min_ms must be <= open_time_max_ms")
    spread = values["synapse.site_spread"]
    dead = values["synapse.dead_zone_pulses"]
    sat = values["synapse.saturation_pulses"]
    if dead * (1 + spread) >= sat * (1 - spread):
        raise ConfigurationError(
            f"synapse.site_spread {spread} lets a dead zone reach the saturation knee"
        )
    roi_px_w = values["rig.roi_width_um"] / values["camera.pixel_scale_um"]
    roi_px_h = values["rig.roi_height_um"] / values["camera.pixel_scale_um"]
    if roi_px_w > values["camera.width_px"] or roi_px_h > values["camera.height_px"]:
        raise ConfigurationError("the readout window exceeds the sensor size")
    full_well = 2 ** values["camera.bit_depth"] - 1
    if values["camera.dark_offset"] >= full_well:
        raise ConfigurationError(
            f"camera.dark_offset {values['camera.dark_offset']} reaches the "
            f"{values['camera.bit_depth']}-bit full well {full_well}: every read would clip"
        )
    if values["energy.spot_small_um"] > values["energy.spot_large_um"]:
        raise ConfigurationError("energy.spot_small_um must be <= energy.spot_large_um")
    # a spot bills (d / waist)^2 of a pulse, so a wider one would bill more than it
    waist = values["energy.waist_um"]
    for key in ("rig.spot_diameter_um", "energy.spot_large_um"):
        if values[key] > waist:
            raise ConfigurationError(f"{key} {values[key]} exceeds energy.waist_um {waist}")
