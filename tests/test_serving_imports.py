"""What a serving process pays for at import time.

The serving stack (service, fleet, gateway, durability) must start without
loading ``scipy``: nothing on the serving path uses it, and importing it
costs a serving process a large share of its start-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serving_stack_imports_without_scipy():
    code = (
        "import sys\n"
        "import repro.service, repro.fleet, repro.gateway, repro.durability\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
