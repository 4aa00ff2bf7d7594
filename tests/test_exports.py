import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hierstream


@pytest.mark.parametrize("module", ["hierstream", "hierstream.metrics", "hierstream.scoring",
                                    "hierstream.describer", "hierstream.pipeline"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"


# What perfbench/workloads.py imports; the benchmark times that import in
# each workload's set-up.
SETUP_MODULES = ("hierstream.core", "hierstream.detector", "hierstream.memory", "hierstream.report",
                 "hierstream.runner", "hierstream.metrics.embedding", "hierstream.metrics.matching",
                 "hierstream.metrics.semantic", "hierstream.scoring.rnn", "hierstream.scoring.streams",
                 "hierstream.scoring.train", "hierstream.scoring.histogram", "hierstream.scoring.losses",
                 "hierstream.simulator")


def test_setup_modules_import_no_heavy_module():
    # concurrent.futures alone takes milliseconds to import, since it pulls
    # in logging; the HTTP describer's modules belong to the CLI only.
    heavy = ("requests", "urllib3", "logging", "concurrent.futures")
    code = "import sys\n" + "".join(f"import {m}\n" for m in SETUP_MODULES) + (
        f"print(*[m for m in {heavy!r} if m in sys.modules])")
    src = str(Path(hierstream.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
