"""The benchmark's tracer wraps layer functions by name; a refactor that
deletes or renames one must fail here, not only in the slower traced run."""

import subprocess
import sys
from pathlib import Path

SOLVERBENCH = Path(__file__).resolve().parent.parent / "solverbench"


def test_tracer_installs_on_every_layer_function():
    script = (
        f"import sys; sys.path.insert(0, {str(SOLVERBENCH)!r})\n"
        "from tracing import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
