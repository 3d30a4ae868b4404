"""Reference computations that only the tests need."""

from __future__ import annotations

import hashlib


def trace_digest(trace: list[tuple[int, int, str, str]]) -> str:
    """Stable fingerprint of an engine's recorded trace, (ns, seq, kind, note)
    per event (determinism checks)."""
    h = hashlib.sha256()
    for time_, seq, kind, note in trace:
        h.update(f"{time_!r}|{seq}|{kind}|{note}\n".encode())
    return h.hexdigest()
