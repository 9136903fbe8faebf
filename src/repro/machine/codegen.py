"""Compatibility stub: the exec-compiled replay kernels are gone.

Template replay is always the interpreted program walk plus columnar
replay.  Only ``codegen_stats`` remains, reporting zeros, for the
benchmark worker that still reads it; a later benchmark change removes
this module.  Nothing in ``repro`` calls it.
"""

from typing import Dict

_KEYS = ("generated", "chunk_generated", "loaded", "demoted", "chunk_demoted", "exec_failed")


def codegen_stats() -> Dict[str, int]:
    """The retired codegen counters, all zero."""
    return dict.fromkeys(_KEYS, 0)
