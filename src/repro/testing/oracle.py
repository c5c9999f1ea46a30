"""The acked-write oracle shared by every soak harness.

A soak records, per key, the last operation the system *acknowledged*.
An operation that failed in a way that may or may not have applied
(a write below quorum, a request whose response never arrived) puts
its key in doubt: either outcome is then allowed, until a later ack
makes the key certain again.  At the end, every certain key must hold
exactly its last acked state — a put's value, or absence after a
delete.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

_ABSENT = object()


class AckOracle:
    """Last acknowledged op per key, minus the keys in doubt."""

    def __init__(self) -> None:
        # key -> (present, value); insertion-ordered, so scans repeat.
        self._certain: dict[Hashable, tuple[bool, Any]] = {}

    def ack_put(self, key: Hashable, value: Any) -> None:
        self._certain[key] = (True, value)

    def ack_delete(self, key: Hashable) -> None:
        self._certain[key] = (False, None)

    def doubt(self, key: Hashable) -> None:
        """The op on ``key`` may or may not have applied."""
        self._certain.pop(key, None)

    def __len__(self) -> int:
        """Keys whose state is certain."""
        return len(self._certain)

    def any_put(self) -> Optional[tuple[Hashable, Any]]:
        """The oldest certain ``(key, value)`` put, or ``None``."""
        for key, (present, value) in self._certain.items():
            if present:
                return key, value
        return None

    def lost(
        self, lookup: Callable[[Hashable, Any], Any]
    ) -> list[tuple[Hashable, Any, Any]]:
        """Every certain key whose state differs from its last ack.

        ``lookup`` is a ``get(key, default)`` over the state under test.
        Returns ``(key, expected, found)`` in key order; ``None`` stands
        for absent on either side.
        """
        out = []
        for key, (present, value) in sorted(self._certain.items()):
            found = lookup(key, _ABSENT)
            if present:
                if found is _ABSENT or found != value:
                    out.append(
                        (key, value, None if found is _ABSENT else found)
                    )
            elif found is not _ABSENT:
                out.append((key, None, found))
        return out
