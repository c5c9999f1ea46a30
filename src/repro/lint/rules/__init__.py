"""Rule modules — importing this package registers every rule."""

from . import (  # noqa: F401
    api_parity,
    async_blocking,
    bare_assert,
    deadline_discipline,
    exception_flow,
    fault_parity,
    lock_discipline,
    stats_parity,
)
