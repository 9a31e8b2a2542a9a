"""The package root holds only ``__version__``: every other name is imported
from the module that defines it, so importing the root loads no submodule."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import nrtloops
loaded = sorted(name for name in sys.modules if name.startswith("nrtloops."))
print(json.dumps({"loaded": loaded, "version": nrtloops.__version__}))
"""


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(result.stdout) == {"loaded": [], "version": "0.1.0"}
