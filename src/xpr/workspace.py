"""Named scratch arrays that one training call reuses from step to step."""
from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Buffers by name and dtype, each handed out as an uninitialized view.

    `empty(name, shape, dtype)` returns a view of the buffer kept under
    `name`, which grows when a request needs more and never shrinks; a new
    request for a name ends the use of its earlier views. A step that asks
    for the same names as the one before it allocates nothing, so it does
    not fault back in memory that the allocator returned to the OS when the
    previous step's arrays were freed. `scope(prefix)` gives a view of the
    same buffers whose names carry the prefix, for two callers that use the
    same names.
    """

    def __init__(self, buffers: dict | None = None, prefix: str = ""):
        self._buffers = {} if buffers is None else buffers
        self._prefix = prefix

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key, size = (self._prefix, name, dtype), math.prod(shape)
        buf = self._buffers.get(key)
        if buf is not None and buf.size >= size:
            return buf[:size].reshape(shape)
        out = np.empty(shape, dtype)
        self._buffers[key] = out.reshape(-1)
        return out

    def scope(self, prefix: str) -> "Workspace":
        return Workspace(self._buffers, f"{self._prefix}{prefix}.")


class _Fresh(Workspace):
    """The workspace that keeps nothing: every request is a new np.empty."""

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)

    def scope(self, prefix: str) -> "Workspace":
        return self


#: the default of every function that takes a workspace, so that inference
#: and a training node called on its own allocate as plain numpy code does
FRESH = _Fresh()
