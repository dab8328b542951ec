"""What this process may use of the machine it runs on."""

from __future__ import annotations

import os


def cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
