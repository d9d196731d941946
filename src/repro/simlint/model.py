"""The finding model shared by the engine, reporters and rules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Finding:
    """One rule violation at one source location.

    Every finding is an error: it fails the lint unless an inline
    ``# simlint: disable=`` comment suppresses it.  ``text`` is the
    stripped source line the finding points at.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    text: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
