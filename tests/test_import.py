"""Cold start: importing the package and its CLI loads no heavy dependency,
and each subcommand loads only the gralab modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gralab

HEAVY = ("scipy", "urllib.request", "ssl", "email")


def _run_python(code, *argv):
    """Run code in a fresh interpreter that imports gralab from this tree;
    return the words of the last line it prints."""
    src = str(Path(gralab.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", code, src, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1].split()


def test_import_loads_no_heavy_modules():
    # Modules already loaded by interpreter start-up hooks are not gralab's.
    code = (
        "import sys; before = set(sys.modules)\n"
        "import gralab, gralab.cli\n"
        "assert gralab.__file__.startswith(sys.argv[1]), gralab.__file__\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in set(sys.modules) - before))"
    )
    assert _run_python(code) == []


def test_cli_import_loads_no_gralab_submodule():
    # Each subcommand imports its own modules when it runs; svgplot escapes
    # its text without html.
    code = (
        "import sys\n"
        "import gralab.cli\n"
        "print(' '.join(m for m in sys.modules if m.startswith('gralab.') or m == 'html'))"
    )
    assert _run_python(code) == ["gralab.cli"]


@pytest.mark.parametrize(
    "argv, allowed",
    [
        (["g2", "number:1", "coherent:2"], {"cli", "fock"}),
        (["classical", "--samples", "10"], {"cli", "classical"}),
        (["cascade", "--gates", "100"], {"cli", "cascade", "fock", "svgplot"}),
        (["beables", "--region", "1", "--check", "--samples", "5"], {"cli", "beables", "checks", "svgplot"}),
        (["beables", "--region", "2", "--sweep", "--check"], {"cli", "beables", "checks", "svgplot"}),
        (["photodetect", "--samples", "10"], {"cli", "photodetect", "checks", "svgplot"}),
    ],
)
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, allowed):
    # An eager import that creeps back into cli.py or checks.py fails here.
    code = (
        "import sys\n"
        "from gralab.cli import main\n"
        "code = main(['--out-dir', sys.argv[2], *sys.argv[3:]])\n"
        "print(code, *(m for m in sys.modules if m.startswith('gralab.')))"
    )
    code, *loaded = _run_python(code, str(tmp_path / "out"), *argv)
    assert code == "0"
    assert {m.removeprefix("gralab.") for m in loaded} <= allowed
