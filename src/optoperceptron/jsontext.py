"""The text of the row-heavy JSON artifacts, in pieces, straight from the
records a run keeps: trace.json from a TrainingTrace's rows and raises,
ledger.json from an EnergyLedger's op log, weight_state.json and
weight_snapshots.json from WeightStates.

Each file's text is what runner.json_text, json.dumps(payload,
sort_keys=True, indent=2) + "\\n", gives for the payload its records stand
for, but no payload and no whole string of it is built: runner.atomic_write
writes the pieces as they come, one row at a time. A row goes through a
template built once from its key names, sorted, so only its values are
encoded per row, by the one value encoder. Only the runs that write these
files import this module.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

from .trainer import RAISE_KEYS, STEP_KEYS, TrainingTrace
from .weights import STATE_KEYS, WeightState

PAD = "  "  # one indent level
FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(v: float) -> str:
    text = float.__repr__(v)
    return FLOAT_WORDS.get(text, text)


# json's text of each scalar type, by exact type.
SCALARS = {
    str: encode_basestring_ascii,
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: _float,
}


def value(v, level: int) -> str:
    """json's text of v nested level deep: a str, None, bool, int or float,
    or a list, tuple or dict, whose items go on lines one level deeper."""
    encode = SCALARS.get(type(v))
    if encode is not None:
        return encode(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = "\n" + PAD * (level + 1)
        return "[" + inner + ("," + inner).join([value(x, level + 1) for x in v]) + "\n" + PAD * level + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = "\n" + PAD * (level + 1)
        items = [f"{encode_basestring_ascii(k)}: {value(v[k], level + 1)}" for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + "\n" + PAD * level + "}"
    return _float(v)  # a float subclass, such as numpy's float64, prints as json prints a float


def template(keys: Sequence[str], level: int) -> Callable[[Sequence], str]:
    """The text of a row, its fields in keys order, as the object that maps
    each key to its field, nested level deep: keys sorted, one per line."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    inner = "\n" + PAD * (level + 1)
    text = "{" + ",".join(f"{inner}{encode_basestring_ascii(keys[i])}: %s" for i in order) + "\n" + PAD * level + "}"
    deeper = level + 1

    def render(row: Sequence) -> str:
        return text % tuple([value(row[i], deeper) for i in order])

    return render


def rows(render: Callable[[Sequence], str], records: Iterable[Sequence], level: int) -> Iterator[str]:
    """The list of the records nested level deep, one piece per record, each
    rendered one level deeper."""
    inner = "\n" + PAD * (level + 1)
    sep = "[" + inner
    for record in records:
        yield sep + render(record)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + PAD * level + "]"


def document(fields: dict) -> Iterator[str]:
    """The top-level object of the fields, by sorted key, and a final newline.
    A field holds a value, or the pieces of a list of rows as an iterator."""
    sep = "{\n" + PAD
    for key in sorted(fields):
        field = fields[key]
        yield f"{sep}{encode_basestring_ascii(key)}: "
        if isinstance(field, Iterator):
            yield from field
        else:
            yield value(field, 1)
        sep = ",\n" + PAD
    yield "\n}\n"


STEP_ROW = template(STEP_KEYS, 2)
RAISE_ROW = template(RAISE_KEYS, 2)


def trace_pieces(trace: TrainingTrace) -> Iterator[str]:
    """trace.json: the trace's summary, threshold raises and steps."""
    yield from document({
        "raises": rows(RAISE_ROW, trace.raises, 1),
        "steps": rows(STEP_ROW, trace.rows, 1),
        "summary": trace.summary(),
    })


def ledger_pieces(ledger) -> Iterator[str]:
    """ledger.json: the ledger's totals and its per-packet write events."""
    from .rig import WRITE_EVENT_KEYS  # loaded wherever a ledger exists

    fields = ledger.totals()._asdict()
    fields["write_events"] = rows(template(WRITE_EVENT_KEYS, 2), ledger.packets(), 1)
    yield from document(fields)


def state_pieces(state: WeightState) -> Iterator[str]:
    """weight_state.json: one state, one row."""
    yield template(STATE_KEYS, 0)(state.row)
    yield "\n"


def snapshots_pieces(states: Iterable[WeightState]) -> Iterator[str]:
    """weight_snapshots.json: the list of states, in the order they were taken."""
    yield from rows(template(STATE_KEYS, 1), (s.row for s in states), 0)
    yield "\n"
