"""The one way a test runs the CLI and reads back what the run wrote.

``run_cli(tmp_path / "o", "emulate", "--seed", "7", config={"trainer.max_epochs": 3})``
writes ``<tmp_path>/o.cfg``, runs ``emulate --seed 7 --out <tmp_path>/o --config
<tmp_path>/o.cfg`` through cli.main and returns its exit code.
"""

from pathlib import Path

from optoperceptron.cli import main


def run_cli(out: Path, *argv: str, config: str | dict | None = None) -> int:
    """cli.main(argv) into out, with config (text or key -> value) as its --config file."""
    args = [*argv, "--out", str(out)]
    if config is not None:
        if isinstance(config, dict):
            config = "".join(f"{key} = {value}\n" for key, value in config.items())
        path = out.with_name(out.name + ".cfg")
        path.write_text(config)
        args += ["--config", str(path)]
    return main(args)


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file under an output directory as bytes, by relative path."""
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def csv_rows(data: bytes) -> list[dict[str, str]]:
    """The rows of a schema CSV's bytes (a schema line, then the header), each by column."""
    _, header, *lines = data.decode().splitlines()
    columns = header.split(",")
    return [dict(zip(columns, line.split(","), strict=True)) for line in lines]
