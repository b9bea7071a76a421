"""Kernel selection: compiled extension if available, NumPy fallback otherwise.

Set ``SYMLOC_PURE=1`` to force the fallback, for instance to compare the
two implementations on one machine.  Neither the tests nor the benchmark
set it.
"""

from __future__ import annotations

import os

if os.environ.get("SYMLOC_PURE") == "1":
    from . import pykernels as _impl
else:
    try:
        from . import _ckernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pykernels as _impl

IMPLEMENTATION: str = _impl.IMPLEMENTATION
combine_terms = _impl.combine_terms
kahan_wsum = _impl.kahan_wsum

__all__ = ["IMPLEMENTATION", "combine_terms", "kahan_wsum"]
