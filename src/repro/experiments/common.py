"""Shared plumbing for the figure drivers, backed by the Session facade."""

from __future__ import annotations

from ..config import ExperimentConfig
from ..session import Session

__all__ = ["prepare"]


def prepare(config: ExperimentConfig | None = None) -> Session:
    """Create the session for a configuration (default: full paper settings)."""
    return Session(config or ExperimentConfig())
