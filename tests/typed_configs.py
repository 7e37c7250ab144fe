"""Typed configs for tests, built the one way a run builds them: from the
key table's defaults through load_config and a RunConfig accessor.

Each builder takes the names of its section's keys, so
``trainer_config(eta_fixed=0.01)`` sets ``trainer.eta_fixed = 0.01`` and
every bound of load_config and every relation of RunConfig.check_rig
applies. A test that needs a value no key admits (a zero exposure, a
site's own background gain) takes ``._replace`` of a built config.

zero_noise is the read-noise block of a noiseless render, the zeros that
draw_read_noise returns for a camera without read noise, and render_frames
is the readout kernel's two stages on one exposure, for the tests that
read one scene at a time.
"""

import numpy as np

from optoperceptron.config import load_config
from optoperceptron.optics import digitize_frames, expose_frames


def _builder(accessor: str, section: str):
    def build(**keys):
        overrides = {f"{section}.{name}": str(value) for name, value in keys.items()}
        cfg = load_config(overrides=overrides)
        cfg.check_rig()
        return getattr(cfg, accessor)()

    build.__name__ = accessor
    build.__doc__ = f"RunConfig.{accessor}() with the given {section}.* keys set."
    return build


trainer_config = _builder("trainer_config", "trainer")
site_params = _builder("nominal_site_params", "synapse")
optical_constants = _builder("optical_constants", "optics")
camera_config = _builder("camera_config", "camera")
shutter_model = _builder("shutter_model", "shutter")


def zero_noise(camera):
    """An all-zero read-noise block for one frame of camera."""
    return np.zeros((1, camera.height, camera.width))


def render_frames(n_frames, scene, constants, camera, noise):
    """expose_frames of one scene into noise, then digitize_frames of it as a
    read operation of one read: the integer counts (noise itself, in place)
    and whether any of them clipped at the full well."""
    expose_frames(n_frames, scene, constants, camera, noise)
    [clipped] = digitize_frames(noise[np.newaxis], camera)
    return noise, clipped
