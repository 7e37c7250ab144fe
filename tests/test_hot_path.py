"""Hot-path guards.

Two loops call no class, an exception included (what they could check, the
config and its callers guarantee: ``tests/test_layering.py``): ``train``'s
step loop, and the rig's per-site packet loop in ``Rig._write_sites`` together
with ``EnergyLedger.add_writes``. The guards read those bodies only, not the
functions they call: ``synapse.apply_packet`` builds a new ``SynapseSite``
for every packet, and an emulate miss builds a ``WeightState``.
A trainer step is one plain tuple, and a ``StepRecord`` is built only when
a caller reads ``trace.steps``. The step loop inlines ``pattern_output``
of the backend's gate vector and ``classify``'s accept test, so an accepted
step calls nothing but the row append; that it computes exactly what those
two functions would is checked by behaviour, against a reference loop, in
``tests/test_trainer.py``. A missed step makes one backend call,
``apply_update``, which returns the gate and weights it moved, and then
appends its row. The ledger logs a write operation as one entry,
and ``Rig.events`` and the ledger's per-packet write events are rendered
only when read.

A rig operation on several sites makes one camera draw and one ADC pass
(reads) or one shutter draw (writes), not one per site: each carries its own
fixed per-call cost. A simulate run takes one draw per learning update.
"""

import ast
import builtins
import importlib
from pathlib import Path

import numpy as np
import pytest

import optoperceptron
from optoperceptron import rig as rig_module
from optoperceptron.config import load_config
from optoperceptron.patterns import build_dataset
from optoperceptron.runner import build_rig, eta_stream, make_streams
from optoperceptron.trainer import LOWER_OUTPUT, RAISE_OUTPUT, VectorBackend, train
from typed_configs import trainer_config

PACKAGE = Path(optoperceptron.__file__).parent


def definitions(module: str) -> dict[str, ast.FunctionDef]:
    """A module's functions by name and its classes' methods by "Class.method"."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def first_loop(body: list[ast.stmt]) -> ast.For:
    return next(node for node in body if isinstance(node, ast.For))


def train_step_loop() -> ast.For:
    return first_loop(first_loop(definitions("trainer")["train"].body).body)


def called_classes(node: ast.AST, module: str) -> list[str]:
    """Calls under node whose callee resolves, against the builtins and the
    module's names, to a class (an exception a raise builds counts too)."""
    names = {**vars(builtins), **vars(importlib.import_module(f"optoperceptron.{module}"))}
    called = [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]
    return [name for name in called if isinstance(names.get(name), type)]


def test_train_step_loop_calls_no_class():
    # The trace is built once per run and a threshold raise once per epoch,
    # outside the step loop; inside it every call is a function or method.
    assert called_classes(train_step_loop(), "trainer") == []


def test_train_miss_makes_one_backend_call():
    # The miss branch is every statement after the accept test's `continue`:
    # apply_update returns the gate and weights it moved, so no gate() or
    # weights() call follows it, and the row append is the only other call.
    body = train_step_loop().body
    accept = next(i for i, node in enumerate(body) if isinstance(node, ast.If))
    miss = ast.Module(body[accept + 1 :], [])
    assert [ast.unparse(n.func) for n in ast.walk(miss) if isinstance(n, ast.Call)] == [
        "update_of",
        "record",
    ]


@pytest.mark.parametrize("where", ["Rig._write_sites", "EnergyLedger.add_writes"])
def test_packet_write_calls_no_class(where):
    # _write_sites is checked in its packet loop, inside its per-site loop,
    # which does nothing but apply each packet; add_writes, called once per
    # site written, as a whole.
    node = definitions("rig")[where]
    if where == "Rig._write_sites":
        node = first_loop(first_loop(node.body).body)
        assert [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)] == [
            "apply_packet"
        ]
    assert called_classes(node, "rig") == []


class CountingRng:
    """A generator that counts the draws made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def __getattr__(self, name):
        self.draws += 1
        return getattr(self.rng, name)


def counting_rig():
    rig = build_rig(load_config(), make_streams(7))
    rig.camera_rng = CountingRng(rig.camera_rng)
    rig.shutter_rng = CountingRng(rig.shutter_rng)
    return rig


def test_one_camera_draw_per_read_operation():
    rig = counting_rig()
    rig.capture_backgrounds()
    assert rig.camera_rng.draws == 1
    for sites in ([3, 1, 4], range(10), [5]):
        rig.read_sites(sites)
    assert rig.camera_rng.draws == 4
    assert rig.ledger.read_events == 10 + 3 + 10 + 1


def test_one_digitize_per_read_operation(monkeypatch):
    # each site's scene is exposed into its slice of the block, and the
    # whole block then goes through the ADC once
    calls = []
    for name in ("expose_frames", "digitize_frames"):
        stage = getattr(rig_module, name)
        monkeypatch.setattr(
            rig_module, name, lambda *args, stage=stage, name=name: calls.append(name) or stage(*args)
        )
    rig = counting_rig()
    rig.capture_backgrounds()
    for sites in ([3, 1, 4], range(10), [5], []):
        rig.read_sites(sites)
    operations = [10, 3, 10, 1, 0]
    assert calls == [
        name for n in operations for name in ["expose_frames"] * n + ["digitize_frames"]
    ]


def test_one_shutter_draw_per_write_operation():
    rig = counting_rig()
    rig.initialize_network()  # ten sites' packets
    assert rig.shutter_rng.draws == 1
    assert rig.camera_rng.draws == 2  # backgrounds, then the full read
    rig.apply_learning_update([0, 4, 8], RAISE_OUTPUT)
    rig.apply_learning_update([2, 6], LOWER_OUTPUT)
    assert rig.shutter_rng.draws == 3
    assert len(rig.ledger.write_events) == 9 * 50 + 250 + 5 * 2


def test_fixed_learning_rate_draws_nothing():
    config = trainer_config(eta_fixed=0.01)
    rng = CountingRng(np.random.default_rng(0))
    trace = train(build_dataset().training, config, VectorBackend(config, rng))
    assert sum(1 for row in trace.rows if row[5] != "accept") > 0
    assert rng.draws == 0


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_sampled_learning_rates_take_one_draw_per_update(seed):
    config = trainer_config()
    rng = CountingRng(eta_stream(seed))
    trace = train(build_dataset().training, config, VectorBackend(config, rng))
    updates = sum(1 for row in trace.rows if row[5] != "accept")
    assert updates > 0
    assert rng.draws == updates
