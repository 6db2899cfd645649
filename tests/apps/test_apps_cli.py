"""Argument checks of the Fig. 7 apps CLI (python -m repro.apps)."""

import pytest

from repro.apps.__main__ import main


@pytest.mark.parametrize("argv", [
    ["--packets", "-5"],
    ["--packets", "many"],
    ["--flows", "0"],
    ["--cores", "-2"],
    ["--cores", "0"],
])
def test_non_positive_sizes_exit_two(argv, capsys):
    """Bad --packets/--flows/--cores: a one-line usage error, not a
    traceback or a silent single-core run."""
    with pytest.raises(SystemExit) as exc:
        main(["--app", "katran"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err or "is not an integer" in err


def test_small_run_still_exits_zero(capsys):
    assert main(["--app", "katran", "--packets", "50", "--flows", "8"]) == 0
    assert "katran" in capsys.readouterr().out
