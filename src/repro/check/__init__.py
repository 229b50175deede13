"""repro.check -- happens-before race and memory-model checking for RMA.

The subsystem has three layers:

* :mod:`repro.check.epochs` -- the always-on epoch-legality rules
  (consolidated from the old inline asserts in ``rma/window.py``);
* :mod:`repro.check.vclock` / :mod:`repro.check.core` -- the vector-clock
  engine and shadow access store (attached per run via
  ``CheckConfig(enabled=True)`` or :func:`~repro.check.core.check_capture`);
* :mod:`repro.check.runner` -- the driver for a user's own program
  (the named demo programs behind ``repro check <workload>`` and their
  expected verdicts live in :mod:`repro.workloads`).

A latent race -- one the default schedule happens to order -- is hunted
by exhaustive exploration on the test side: ``tests/check/explore.py``
reruns a registry entry under every set of at most k delayed packets
(docs/CORRECTNESS.md, "Delay-bounded exploration").

This ``__init__`` stays import-light because ``rma/window.py`` imports
``repro.check.epochs`` on the hot path: the heavy modules (the runner,
which pulls in the whole runtime) are loaded lazily on attribute
access.
"""

from __future__ import annotations

from typing import Any

__all__ = ["RaceChecker", "Violation", "Access", "VectorClock",
           "check_capture", "active_check_capture", "run_checked",
           "render_check_report"]

_LAZY = {
    "RaceChecker": ("repro.check.core", "RaceChecker"),
    "Violation": ("repro.check.core", "Violation"),
    "Access": ("repro.check.core", "Access"),
    "VectorClock": ("repro.check.vclock", "VectorClock"),
    "check_capture": ("repro.check.core", "check_capture"),
    "active_check_capture": ("repro.check.core", "active_check_capture"),
    "run_checked": ("repro.check.runner", "run_checked"),
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
