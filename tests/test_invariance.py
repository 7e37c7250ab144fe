"""Invariances the physics guarantees.

A run's outputs depend on its lengths only through their ratio to the
camera's pixel scale, and its counts on gain over pixel area. So doubling
every length key and quadrupling the gain moves no artifact byte but the
config echo and the fields that state a length or an area. At a factor of
2 every float operation scales exactly, so equality holds bit for bit.
"""

import json

import pytest

from optoperceptron.cli import main
from optoperceptron.config import KEY_TABLE

LENGTH_KEYS = (
    "camera.pixel_scale_um", "rig.roi_width_um", "rig.roi_height_um", "rig.spot_diameter_um",
    "rig.site_spacing_um", "energy.waist_um", "energy.spot_small_um", "energy.spot_large_um",
)
SHORT = {"trainer.max_epochs": 3}
# every length x 2 and the gain x 4, which keeps the counts of a pixel
DOUBLED = {**SHORT, **{key: 2 * KEY_TABLE[key].default for key in LENGTH_KEYS},
           "camera.gain": 4 * KEY_TABLE["camera.gain"].default}


def artifacts(tmp_path, name, values, argv) -> dict[str, bytes]:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    out = tmp_path / name
    assert main([*argv, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("argv", [["emulate", "--verbose", "--frames"], ["energy"]], ids=["emulate", "energy"])
def test_doubling_every_length_with_four_times_the_gain_moves_no_artifact(tmp_path, capsys, argv):
    base = artifacts(tmp_path, "base", SHORT, argv)
    double = artifacts(tmp_path, "double", DOUBLED, argv)
    assert sorted(base) == sorted(double)
    assert base.pop("config.resolved.txt") != double.pop("config.resolved.txt")
    if "sample_final.pgm.json" in base:
        sidecar, scaled_sidecar = (json.loads(d.pop("sample_final.pgm.json")) for d in (base, double))
        assert scaled_sidecar.pop("pixel_area_um2") == 4 * sidecar.pop("pixel_area_um2")
        assert scaled_sidecar == sidecar
    if "energy.txt" in base:
        stated = base.pop("energy.txt").replace(b"(25.0 um spot)", b"(50.0 um spot)")
        assert double.pop("energy.txt") == stated.replace(b"(40.0 um spot)", b"(80.0 um spot)")
    assert [name for name in base if base[name] != double[name]] == []
