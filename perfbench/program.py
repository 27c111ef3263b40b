"""Load classgraph from this checkout's ``src`` and a workload module."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("realize", "perm_route", "detector")


def load(workload: str):
    """The workload's module, with classgraph imported from ``SRC``.

    Fails when classgraph comes from anywhere else, so a checkout without
    its source never measures some other copy.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sys.path.insert(0, str(SRC))
    import classgraph

    if Path(classgraph.__file__).resolve().parent != SRC / "classgraph":
        raise ImportError(f"classgraph came from {classgraph.__file__}, not {SRC}")
    return importlib.import_module(workload)
