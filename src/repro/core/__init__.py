"""The paper's contribution: Virtualized Treelet Queues.

Components (paper section in parentheses):

* :mod:`repro.core.config` — all VTQ design parameters and ablation knobs.
* :mod:`repro.core.treelet_queue` — the Treelet Count Table and Treelet
  Queue Table hardware structures, with capacity/overflow semantics and
  the area math of Section 6.5.
* :mod:`repro.core.virtualization` — ray virtualization (3.1/4.1): CTA
  suspend/resume bookkeeping, state-size accounting and the save/restore
  cost every VTQ driver charges.
* :mod:`repro.core.rt_unit_vtq` — the dynamic treelet queue RT unit
  (3.2/4.2-4.5): initial ray-stationary phase, treelet-stationary
  processing with preloading, grouping of underpopulated queues, and warp
  repacking.
"""

from repro.core.config import VTQConfig
from repro.core.treelet_queue import (
    TreeletCountTable,
    TreeletQueueTable,
    TreeletQueues,
    area_overheads,
)
from repro.core.virtualization import CTATracker, cta_state_bytes
from repro.core.rt_unit_vtq import VTQRTUnit

# Re-exported so `repro.core` is self-contained for users of the public API.
from repro.gpusim.stats import TraversalMode

__all__ = [
    "VTQConfig",
    "TreeletCountTable",
    "TreeletQueueTable",
    "TreeletQueues",
    "area_overheads",
    "CTATracker",
    "cta_state_bytes",
    "VTQRTUnit",
    "TraversalMode",
]
