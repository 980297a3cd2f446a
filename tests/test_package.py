import os
import subprocess
import sys
from pathlib import Path

import hitset


def test_import_loads_no_optional_dependency():
    # scipy alone adds tens of MiB to a solve's peak RSS; the others are test-only
    code = (
        "import sys, hitset; "
        "print(' '.join(m for m in ('scipy', 'networkx', 'hypothesis', 'pytest') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hitset.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "\n"
