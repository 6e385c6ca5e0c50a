"""Cold start: importing the package and its CLI loads no heavy dependency."""

import os
import subprocess
import sys
from pathlib import Path

import gralab

HEAVY = ("scipy", "urllib.request", "ssl", "email")


def test_import_loads_no_heavy_modules():
    src = str(Path(gralab.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # Modules already loaded by interpreter start-up hooks are not gralab's.
    code = (
        "import sys; before = set(sys.modules)\n"
        "import gralab, gralab.cli\n"
        "assert gralab.__file__.startswith(sys.argv[1]), gralab.__file__\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
