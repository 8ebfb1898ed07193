"""Correlation of dynamic call path profiles with static structure.

This is the ``hpcprof`` substrate's core step: fuse the measured call-path
trie (:class:`~repro.hpcrun.profile_data.ProfileData`) with the program's
static structure (:class:`~repro.hpcstruct.model.StructureModel`) into the
*canonical calling context tree* the presentation layer consumes.

Fusion rules (Section III-A, III-D of the paper):

* each dynamic frame becomes a ``FRAME`` scope linked to its static
  procedure;
* the call site that created a frame is nested inside the loop chain that
  statically encloses the call line in the *caller* — this is how the
  Calling Context View interleaves loops with call chains ("the call chain
  presented includes both dynamic context and the loop nests surrounding
  these procedure calls");
* a leaf sample is attributed to a ``STATEMENT`` scope nested inside the
  loop/inlining chain enclosing its line — or to the ``CALL_SITE`` scope at
  that line when the line is a known call site (cost at the call
  instruction itself);
* procedures unknown to the structure model (binary-only runtime code,
  e.g. libc or interpreter internals) are attached to a synthetic
  ``<unknown>`` load module, mirroring hpcviewer's plain-black entries
  "with no associated source code".
"""

from __future__ import annotations

from repro.core.cct import CCT, CCTNode
from repro.errors import CorrelationError
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcstruct.model import StructKind, StructureModel, StructureNode

__all__ = ["Correlator", "correlate"]

_UNKNOWN_MODULE = "<unknown load module>"


class Correlator:
    """Stateful correlator: one structure model, possibly many profiles.

    Correlating several profiles against the same ``Correlator`` merges
    them into a single CCT with summed raw costs (the multi-thread /
    multi-rank union).  For per-rank analysis, correlate each profile into
    its own CCT and combine with :mod:`repro.hpcprof.merge`.
    """

    def __init__(self, structure: StructureModel) -> None:
        self.structure = structure
        self.cct = CCT()
        self._proc_cache: dict[tuple[str, str], StructureNode] = {}
        self._call_lines: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    def add_profile(self, profile: ProfileData) -> None:
        """Fuse one profile's call paths into the CCT."""
        for frames, leaf_line, costs in profile.paths():
            self._leaf_scope(frames, leaf_line).add_raw(dict(costs))
        self.cct.invalidate_caches()  # shape and raw values changed

    def add_contexts(self, contexts) -> list[CCTNode]:
        """Insert ``(frames, leaf_line)`` contexts without cost.

        Returns the leaf scope each context correlates to, in input
        order — the context -> scope map a trace interns once so its
        windows never correlate again.
        """
        leaves = [
            self._leaf_scope(frames, leaf_line) for frames, leaf_line in contexts
        ]
        self.cct.invalidate_caches()
        return leaves

    # ------------------------------------------------------------------ #
    def _resolve_proc(self, frame: Frame) -> StructureNode:
        key = (frame.file, frame.proc)
        proc = self._proc_cache.get(key)
        if proc is not None:
            return proc
        proc = self.structure.find_procedure(frame.proc, frame.file or None)
        if proc is None:
            # binary-only code: synthesize structure under <unknown>
            lm = self.structure.add_load_module(_UNKNOWN_MODULE)
            file_scope = self.structure.add_file(lm, frame.file or "<unknown file>")
            proc = self.structure.add_procedure(file_scope, frame.proc, 0)
        self._proc_cache[key] = proc
        return proc

    def _call_line_set(self, proc: StructureNode) -> set[int]:
        lines = self._call_lines.get(proc.uid)
        if lines is None:
            lines = {line for line, _callee in proc.calls} if proc.calls else set()
            self._call_lines[proc.uid] = lines
        return lines

    def _descend_loops(self, node: CCTNode, proc: StructureNode, line: int) -> CCTNode:
        """Create/visit the CCT loop chain enclosing *line* within *proc*."""
        for scope in StructureModel.scope_chain_for_line(proc, line):
            node = node.ensure_loop(scope)
        return node

    def _insert_path(self, frames: list[Frame]) -> CCTNode:
        """Insert a dynamic call path; return the innermost frame scope."""
        if not frames:
            raise CorrelationError("empty call path")
        entry_proc = self._resolve_proc(frames[0])
        node = self.cct.root.ensure_frame(entry_proc)
        caller_proc = entry_proc
        for frame in frames[1:]:
            callee_proc = self._resolve_proc(frame)
            anchor = self._descend_loops(node, caller_proc, frame.call_line)
            site = anchor.ensure_call_site(frame.call_line, struct=caller_proc)
            node = site.ensure_frame(callee_proc)
            caller_proc = callee_proc
        return node

    def _leaf_scope(self, frames: list[Frame], line: int) -> CCTNode:
        """The scope a sample at *line* in the innermost frame lands on."""
        frame_node = self._insert_path(frames)
        proc = frame_node.struct
        anchor = self._descend_loops(frame_node, proc, line)
        if line in self._call_line_set(proc):
            return anchor.ensure_call_site(line, struct=proc)
        return anchor.ensure_statement(line, struct=proc)


def correlate(profile: ProfileData, structure: StructureModel) -> CCT:
    """Correlate a single profile, returning its canonical CCT."""
    correlator = Correlator(structure)
    correlator.add_profile(profile)
    return correlator.cct
