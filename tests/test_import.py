"""``import repro`` stays light: no scipy on the import path.

scipy was once imported for a single normal quantile
(``analysis.rnb_model``) and made up most of the package's import time;
``statistics.NormalDist`` now provides that quantile.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_fresh_import_leaves_scipy_out():
    code = (
        "import sys, repro, repro.analysis, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
