"""Regenerate ``pins.json``: the expected outcome of every catalogue task.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs every task any seed can produce once and records its op digests, or
``{"raises": "<type>"}`` when it raises.  Re-pin only in a change that is
meant to alter simulated behaviour, and say so in that change.
"""

from __future__ import annotations

import sys

from run import WORKLOAD_NAMES, load_workload


def pin(name: str) -> dict[str, object]:
    workload, _seconds = load_workload(name)
    pins: dict[str, object] = {}
    for task in workload.catalogue():
        try:
            pins[task.key] = list(task.run())
        except Exception as exc:  # a known failure is pinned, not hidden
            pins[task.key] = {"raises": type(exc).__name__}
        print(f"{name} {task.key}: "
              f"{pins[task.key] if isinstance(pins[task.key], dict) else 'ok'}")
    return pins


def main(names: list[str]) -> int:
    import digests

    try:
        current = digests.load_pins()
    except FileNotFoundError:
        current = {}
    for name in names or WORKLOAD_NAMES:
        current[name] = pin(name)
    digests.write_pins(current)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
