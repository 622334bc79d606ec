"""``KMP_ALIGN_ALLOC`` model: alignment of runtime-internal structures.

``__kmp_allocate`` aligns internal structures (per-thread barrier flags,
lock cells, reduction scratch) to ``KMP_ALIGN_ALLOC`` bytes, default one
cache line.  Consequences the model captures:

- alignment *below* the line size packs several hot structures into one
  line and threads false-share them: every barrier/reduction operation
  pays proportionally (only reachable on A64FX-like machines if a user
  forced e.g. 64 on a 256-byte-line part — the swept values never go
  below the line size, matching the paper),
- alignment *above* the line size gives each structure a private line plus
  padding, removing occasional adjacent-structure conflicts; a small
  benefit that only shows on synchronization-heavy applications (the
  paper's CG-on-Skylake row in Table VII).
"""

from __future__ import annotations

from repro.arch.costs import RuntimeCosts
from repro.runtime.icv import ResolvedICVs

__all__ = ["sync_alignment_factor"]

#: Cap on the adjacent-structure benefit from extra-wide alignment.
_MAX_PAD_BENEFIT = 0.06
#: False-sharing penalty per extra structure packed into one line.
_FS_PENALTY_PER_NEIGHBOR = 0.35


def sync_alignment_factor(icvs: ResolvedICVs, costs: RuntimeCosts) -> float:
    """Multiplier on synchronization costs from structure alignment.

    1.0 at the default (line-sized) alignment; > 1 when structures are
    packed below a line; slightly < 1 when padded beyond a line.
    """
    align = icvs.align_alloc
    line = icvs.cache_line
    if align < line:
        neighbors = line // align - 1
        return 1.0 + _FS_PENALTY_PER_NEIGHBOR * neighbors
    if align > line:
        # Doubling alignment removes about half the residual adjacent-line
        # conflicts; quadrupling most of the rest.
        ratio = min(align // line, 8)
        benefit = _MAX_PAD_BENEFIT * (1.0 - 1.0 / ratio)
        return 1.0 - benefit
    return 1.0
