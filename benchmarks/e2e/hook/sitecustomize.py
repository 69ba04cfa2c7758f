"""Interpreter-start hook for the benchmark's traced rep.

``run.py`` puts this directory first on ``PYTHONPATH`` for the traced
rep only, so every process of that rep (the campaign process, ``repro
serve`` and the spawned pool workers) imports this module at start-up.
With ``BENCH_TRACE_DIR`` set it installs the span recorder of
``../tracing.py``; otherwise it does nothing.
"""

import importlib.util
import os
import sys

_DIR = os.environ.get("BENCH_TRACE_DIR")
if _DIR:
    _PATH = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tracing.py")
    _SPEC = importlib.util.spec_from_file_location("_e2e_tracing", _PATH)
    _MODULE = importlib.util.module_from_spec(_SPEC)
    sys.modules["_e2e_tracing"] = _MODULE
    _SPEC.loader.exec_module(_MODULE)
    _MODULE.install(_DIR)
