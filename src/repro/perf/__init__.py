"""Cross-cutting performance layer.

``repro.perf`` is plumbing, not physics: a process-level, byte-exact
memo for deterministic artefacts (FFBP merge index tables, gather
stencils, kernel cost plans, RDA tables, the noise-free simulated
echo) that the hot paths otherwise recompute per run.  See
:mod:`repro.perf.memo` for the design rules (byte identity, bounded
residency, optional ``ResultCache`` persistence, leaf layering) and
``docs/architecture.md`` §12 for how the layer is measured.
"""

from repro.perf.memo import (
    clear_memo,
    freeze,
    memo_budget_bytes,
    memo_disabled,
    memo_enabled,
    memo_key,
    memo_stats,
    memoize,
    set_memo_enabled,
)

__all__ = [
    "clear_memo",
    "freeze",
    "memo_budget_bytes",
    "memo_disabled",
    "memo_enabled",
    "memo_key",
    "memo_stats",
    "memoize",
    "set_memo_enabled",
]
