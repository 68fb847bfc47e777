"""The traced benchmark wraps ringveil functions by module and name.

A rename in ringveil would make `perfbench/run.py --trace 1` stop with its
guard error; this test fails first.  It reads perfbench/tracing.py from its
path, since perfbench is not an importable package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _hook in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.TARGETS
    assert missing == []
