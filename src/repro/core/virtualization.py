"""Ray virtualization: CTA suspend / resume (Sections 3.1, 4.1, 6.6).

A raygen CTA is terminated once all its threads have issued
``traceRayEXT()``; its state (live registers plus per-warp SIMT stacks) is
saved to memory and the CTA slot is reclaimed so further raygen CTAs can
launch, multiplying the rays the RT unit can see.  When all of a CTA's
rays finish traversal, the RT unit injects the CTA back into the CTA
scheduler; the state is restored before shading resumes.

``CTATracker`` is the bookkeeping side: it counts outstanding rays per
(CTA, bounce) and reports when a CTA is ready to resume.
``CTAStateCost`` is the timing and traffic side, charged by every VTQ
driver (the render drivers and the vkrt pipeline) through
``MemorySystem.cta_state_transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gpusim.config import GPUConfig


def cta_state_bytes(config: GPUConfig) -> int:
    """Bytes saved when suspending one CTA (Section 6.6's accounting).

    ``raygen_registers_per_thread`` 32-bit registers per thread (the ptxas
    maximum — conservative, as the paper notes only live registers are
    strictly needed) plus a 32-bit SIMT mask, PC and reconvergence PC per
    SIMT-stack entry per warp.
    """
    return config.cta_state_bytes()


class CTAStateCost:
    """What suspending and resuming a CTA costs the VTQ unit ``engine``
    (Section 4.1, Fig. 16).

    Streaming the state occupies the memory path the RT unit shares, so
    each save and each restore adds ``dram_line_transfer`` per state line
    to ``engine.cycle`` (the paper's ~10% overhead is "predominantly from
    the increased memory accesses to save and load CTA states"); a
    restore also delays reissue by the transfer latency plus
    ``cta_resume_schedule_cycles``.  Without ``virtualization_overheads``
    both are free.  ``cta_saves`` / ``cta_restores`` count them.
    """

    def __init__(self, engine):
        config = engine.config
        self.engine = engine
        self.enabled = engine.vtq.virtualization_overheads
        self.state_bytes = cta_state_bytes(config)
        state_lines = (self.state_bytes + config.line_bytes - 1) // config.line_bytes
        self.occupancy = float(config.dram_line_transfer * state_lines)
        self.schedule_cycles = config.cta_resume_schedule_cycles

    def save(self) -> None:
        """Charge one CTA suspension."""
        engine = self.engine
        if self.enabled:
            recorder = engine.mem.recorder
            if recorder is not None:
                recorder.cta_save()
            engine.mem.cta_state_transfer(self.state_bytes)
            engine.cycle += self.occupancy
        engine.stats.cta_saves += 1

    def restore(self) -> float:
        """Charge one CTA resumption; returns its latency to reissue."""
        engine = self.engine
        engine.stats.cta_restores += 1
        if not self.enabled:
            return 0.0
        recorder = engine.mem.recorder
        if recorder is not None:
            recorder.cta_restore()
        restore = engine.mem.cta_state_transfer(self.state_bytes)
        engine.cycle += self.occupancy
        return restore + self.schedule_cycles


@dataclass
class _CTAEntry:
    outstanding: int
    completed: List = field(default_factory=list)


class CTATracker:
    """Outstanding-ray accounting for suspended CTAs.

    Keys are ``(cta_id, bounce)`` because a CTA suspends once per trace
    call: after issuing its primary rays and again after issuing each
    bounce's secondary rays.
    """

    def __init__(self):
        self._entries: Dict[Tuple[int, int], _CTAEntry] = {}
        self.saves = 0
        self.restores = 0

    def suspend(self, cta_id: int, bounce: int, num_rays: int) -> None:
        """Record a CTA suspension awaiting ``num_rays`` traversals."""
        if num_rays < 1:
            raise ValueError("a suspended CTA must await at least one ray")
        key = (cta_id, bounce)
        if key in self._entries:
            raise ValueError(f"CTA {cta_id} bounce {bounce} already suspended")
        self._entries[key] = _CTAEntry(outstanding=num_rays)
        self.saves += 1

    def ray_done(self, cta_id: int, bounce: int, ray) -> Optional[List]:
        """Note one ray's completion.

        Returns the CTA's full list of completed rays when this was the
        last outstanding one (the CTA is ready to resume), else ``None``.
        """
        key = (cta_id, bounce)
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"CTA {cta_id} bounce {bounce} is not suspended")
        entry.completed.append(ray)
        entry.outstanding -= 1
        if entry.outstanding == 0:
            del self._entries[key]
            self.restores += 1
            return entry.completed
        return None

    def pending_ctas(self) -> int:
        return len(self._entries)

    def outstanding_rays(self) -> int:
        return sum(e.outstanding for e in self._entries.values())
