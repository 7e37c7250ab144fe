"""Per-operation cost of the emulate rig and the simulate backend, in microseconds.

Builds the default rig at one seed, initializes its network, then times
each operation in interleaved rounds in this one process: every round runs
every operation --ops times in a row, in a fixed order, and the printed
figure is the median over rounds of the mean per call. A read is timed at
1, 5 and 10 sites, and also per site; the two stages of the readout kernel
are timed on their own, one site's exposure and the ADC pass over a 5-site
block. The simulate backend's learning update is timed on the same five
sites, beside one learning-rate draw and one stream built from its seed.
Uses only the stdlib, numpy and the package:

    PYTHONPATH=src python tools/rig_ops.py [--rounds 300] [--ops 20] [--seed 100000]
"""

import argparse
import statistics
import time

from optoperceptron.config import load_config
from optoperceptron.optics import digitize_frames, draw_read_noise, expose_frames
from optoperceptron.patterns import N_INPUTS, Pattern
from optoperceptron.pcg import Pcg64
from optoperceptron.runner import build_rig, make_streams
from optoperceptron.trainer import LOWER_OUTPUT, RAISE_OUTPUT, VectorBackend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--ops", type=int, default=20, help="calls of each operation per round")
    parser.add_argument("--seed", type=int, default=100000)
    args = parser.parse_args()

    cfg = load_config()
    rig = build_rig(cfg, make_streams(args.seed))
    rig.initialize_network()
    camera, n_frames, constants = rig.window_camera, rig.config.frames_per_read, rig.constants
    active = [0, 2, 4, 6, 8]  # five active sites, near the mean learning update's 5.2
    scenes = [[(rig.sites[i], rig._window_mask)] for i in active]
    exposed = draw_read_noise(rig.camera_rng, camera, n_frames)  # exposure cost does not depend on its values
    block = draw_read_noise(rig.camera_rng, camera, len(active), n_frames)
    for scene, noise in zip(scenes, block):
        expose_frames(n_frames, scene, constants, camera, noise)
    direction = [RAISE_OUTPUT, LOWER_OUTPUT]
    vector, stream = VectorBackend(cfg.trainer_config(), Pcg64(args.seed)), Pcg64(args.seed)
    pattern = Pattern("x0", "v", 0, "train", tuple(int(i in active) for i in range(N_INPUTS)))

    def write():
        direction.reverse()  # raise and lower in turn, as a training run mixes them
        rig.apply_learning_update(active, direction[0])

    def update():
        direction.reverse()
        vector.apply_update(pattern, direction[0])

    ops = {  # name: (call, sites it covers)
        "read, 1 site": (lambda: rig.read_sites([4]), 1),
        "read, 5 sites": (lambda: rig.read_sites(active), 5),
        "read, 10 sites": (lambda: rig.read_sites(range(10)), 10),
        "expose_frames, 1 site": (lambda: expose_frames(n_frames, scenes[0], constants, camera, exposed), 1),
        "digitize_frames, 5 sites": (lambda: digitize_frames(block, camera), 5),
        "learning write, 5 sites": (write, 5),
        "weight state": (rig.weight_state, 1),
        "simulate update, 5 sites": (update, 5),
        "learning-rate draw": (stream.random, 1),
        "stream from a seed": (lambda: Pcg64(args.seed), 1),
    }
    samples = {name: [] for name in ops}
    for _ in range(args.rounds):
        for name, (call, _) in ops.items():
            start = time.perf_counter()
            for _ in range(args.ops):
                call()
            samples[name].append((time.perf_counter() - start) / args.ops * 1e6)
    print(f"median of {args.rounds} interleaved rounds of {args.ops} calls each, seed {args.seed}")
    for name, (_, sites) in ops.items():
        per_op = statistics.median(samples[name])
        per_site = f"  {per_op / sites:8.1f} us/site" if sites > 1 else ""
        print(f"{name:26s} {per_op:8.1f} us/op{per_site}")


if __name__ == "__main__":
    main()
