import pytest
from cli_runs import artifacts, run_cli
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def files_of(tmp_path_factory):
    """files_of(*argv, config=None) is artifacts() of that run_cli call, which
    must exit 0. Each distinct call runs once per session, and every test
    that reads its files shares that one run. A test that reruns on purpose
    (criterion 9), reads stdout or patches the package calls run_cli itself."""
    made = {}

    def files(*argv, config=None):
        key = (argv, tuple(config.items()) if isinstance(config, dict) else config)
        if key not in made:
            out = tmp_path_factory.mktemp("run") / "o"
            assert run_cli(out, *argv, config=config) == 0
            made[key] = artifacts(out)
        return dict(made[key])

    return files
