"""Comparing rendered reports: pytest's own diff of two texts of megabytes
takes minutes, so tests compare them through `first_difference`."""

from __future__ import annotations


def first_difference(text: str, reference: str) -> tuple | None:
    """None if the texts are equal, else the first line where they part, in each."""
    if text == reference:
        return None
    a, b = text.splitlines(), reference.splitlines()
    i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
    return i, a[i:i + 1], b[i:i + 1]
