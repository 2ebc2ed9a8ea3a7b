"""Thread-local call counters for cost-contract checks.

The model bumps "forward" on every forward and the autodiff graph bumps
"backward" on every backward walk; tests use them to prove an attribution
costs exactly one forward and one backward pass. Counters are thread-local
so models stay shareable across threads.
"""

import threading

_local = threading.local()


def _counts() -> dict:
    if not hasattr(_local, "counts"):
        _local.counts = {"forward": 0, "backward": 0}
    return _local.counts


def bump(name: str) -> None:
    _counts()[name] = _counts().get(name, 0) + 1


def reset() -> None:
    _local.counts = {"forward": 0, "backward": 0}


def snapshot() -> dict:
    return dict(_counts())
