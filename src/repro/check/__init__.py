"""repro.check -- happens-before race and memory-model checking for RMA.

The subsystem has three layers:

* :mod:`repro.check.epochs` -- the always-on epoch-legality rules
  (consolidated from the old inline asserts in ``rma/window.py``);
* :mod:`repro.check.vclock` / :mod:`repro.check.core` -- the vector-clock
  engine and shadow access store (attached per run via
  ``CheckConfig(enabled=True)`` or :func:`~repro.check.core.check_capture`);
* :mod:`repro.check.runner` / :mod:`repro.check.perturb` -- the driver
  for a user's own program and the seeded schedule-perturbation sweep
  behind ``repro check <workload> [--perturb N]`` (the named demo
  programs and their expected verdicts live in :mod:`repro.workloads`).

This ``__init__`` stays import-light because ``rma/window.py`` imports
``repro.check.epochs`` on the hot path: the heavy modules (runner,
perturbation -- which pull in the whole runtime) are loaded
lazily on attribute access.
"""

from __future__ import annotations

from typing import Any

__all__ = ["RaceChecker", "Violation", "Access", "VectorClock",
           "check_capture", "active_check_capture", "run_checked",
           "perturb_sweep", "render_check_report"]

_LAZY = {
    "RaceChecker": ("repro.check.core", "RaceChecker"),
    "Violation": ("repro.check.core", "Violation"),
    "Access": ("repro.check.core", "Access"),
    "VectorClock": ("repro.check.vclock", "VectorClock"),
    "check_capture": ("repro.check.core", "check_capture"),
    "active_check_capture": ("repro.check.core", "active_check_capture"),
    "run_checked": ("repro.check.runner", "run_checked"),
    "perturb_sweep": ("repro.check.perturb", "perturb_sweep"),
    "render_check_report": ("repro.check.report", "render_check_report"),
}


def __getattr__(name: str) -> Any:
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.check' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module), attr)
