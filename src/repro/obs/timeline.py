"""Dual-issue timeline views over an :class:`~repro.obs.events.ObsSink`.

Every core emits one event per issue slot into its sink scope: the
integer core's issues and FP dispatches on the ``int`` lane, the FPSS
issues (sequencer replays flagged with ``args["seq"]``) on the ``fp``
lane.  :func:`render_timeline` draws one scope's two issue engines as
parallel lanes — the overlap the whole paper is about becomes directly
visible:

      cycle  integer core       FPSS
    ---------------------------------------------
        903  lw                 fmadd.d  <seq
        904  lw                 fmul.d  <seq
        905                     fmadd.d  <seq

Attach a sink with ``Machine.attach_obs`` (scope ``core``) or, for
whole hierarchies, ``ClusterMachine.attach_obs`` /
``SocMachine.attach_obs`` (scopes ``cluster0/core{k}``,
``soc/cluster{c}/core{k}``) before running.
"""

from __future__ import annotations

from .events import ObsEvent, ObsSink

#: Event categories that occupy an issue slot.  ``dma.start`` and
#: ``dma.wait`` share the ``int`` lane under ``cat="dma"``; they are
#: transfer marks, not issue events, and stay out of these views.
_ISSUE_CATS = ("issue", "dispatch")


def _issue_events(sink: ObsSink, scope: str) -> list[ObsEvent]:
    """*scope*'s ``int``/``fp`` issue events, in emission order."""
    return [e for e in sink.events
            if e.scope == scope and e.cat in _ISSUE_CATS
            and e.lane in ("int", "fp")]


def _fit(cell: str, width: int) -> str:
    """Pad *cell* to *width*; mark (never silently drop) overflow."""
    if len(cell) > width:
        return cell[: max(width - 1, 0)] + "~"
    return f"{cell:<{width}}"


def render_timeline(sink: ObsSink, scope: str, start: int = 0,
                    end: int | None = None, width: int = 18,
                    show_pc: bool = False) -> str:
    """Render *scope*'s two issue lanes side by side for [start, end).

    Cycles where neither engine issues are elided with a ``...`` row —
    including a trailing one when the window ends inside a gap.  With
    ``show_pc=True`` each integer-lane mnemonic carries its static
    instruction index as ``#pc`` (FPSS issues have none).  Cells longer
    than *width* are marked with a ``~`` instead of silently truncated.
    """
    events = _issue_events(sink, scope)
    if end is None:
        end = max((e.ts for e in events), default=0) + 1
    int_lane: dict[int, str] = {}
    fp_lane: dict[int, str] = {}
    for event in events:
        if not start <= event.ts < end:
            continue
        cell = event.name
        args = event.args or {}
        if event.lane == "int":
            if show_pc and "pc" in args:
                cell += f" #{args['pc']}"
            int_lane[event.ts] = cell
        else:
            suffix = "  <seq" if args.get("seq") else ""
            fp_lane[event.ts] = cell + suffix
    lines = [f"{'cycle':>7}  {'integer core':<{width}} {'FPSS':<{width}}"]
    lines.append("-" * (9 + 2 * width))
    gap = False
    for cycle in range(start, end):
        int_op = int_lane.get(cycle)
        fp_op = fp_lane.get(cycle)
        if int_op is None and fp_op is None:
            gap = True
            continue
        if gap:
            lines.append(f"{'...':>7}")
            gap = False
        lines.append(f"{cycle:>7}  {_fit(int_op or '', width)} "
                     f"{_fit(fp_op or '', width)}")
    if gap:
        lines.append(f"{'...':>7}")
    return "\n".join(lines)


def dual_issue_cycles(sink: ObsSink, scope: str) -> int:
    """Number of cycles where both of *scope*'s engines issued."""
    events = _issue_events(sink, scope)
    int_cycles = {e.ts for e in events if e.lane == "int"}
    fp_cycles = {e.ts for e in events if e.lane == "fp"}
    return len(int_cycles & fp_cycles)


def lane_utilization(sink: ObsSink, scope: str,
                     cycles: int) -> tuple[float, float]:
    """(integer, FP) issue-slot utilization of *scope* over *cycles*."""
    if cycles == 0:
        return (0.0, 0.0)
    events = _issue_events(sink, scope)
    int_count = sum(1 for e in events if e.lane == "int")
    return (int_count / cycles, (len(events) - int_count) / cycles)
