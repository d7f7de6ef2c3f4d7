"""Every function the benchmark's span tracer wraps still exists.

perfbench/tracing.py lists the multsys functions it wraps in GROUPS, and
a traced run fails on a name that is gone.  The file is compiled from its
source here, not imported, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    for _, module_name, attrs, _ in tracing.GROUPS:
        module = importlib.import_module(module_name)
        for dotted in attrs:
            holder, name = tracing._resolve(module, dotted)  # raises on a missing name
            assert callable(getattr(holder, name)), f"{module_name}.{dotted}"
