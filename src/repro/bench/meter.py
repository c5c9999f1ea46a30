"""Deterministic cost meter: Python-level calls, counted by ``sys.settrace``.

Every Python frame entered (function, method, property, generator
resumption) is one ``call`` event; C functions such as ``bisect`` enter
none.  Unlike opcode counts, call counts agree across CPython 3.10-3.12
(except that 3.12 runs comprehensions inline), so tests can gate on them.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def python_calls(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> int:
    """Python-level calls ``fn(*args, **kwargs)`` makes in this thread,
    not counting ``fn``'s own frame; 0 means it ran dispatch-free."""
    here = sys._getframe()
    calls = 0

    def on_call(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if frame.f_back is not here:
            calls += 1

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return calls
