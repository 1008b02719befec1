"""flowcomm: patch-level motion-semantics video transmission simulator."""

__version__ = "0.1.0"

from .video import PatchGrid, Video  # noqa: F401
