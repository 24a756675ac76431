"""Issue-timeline tests: event capture through ObsSink and rendering.

The parity windows below are the renderer's output on two steady-state
windows (the ones ``examples/pipeline_timeline.py`` and
``examples/trace_kernel.py`` print), pinned byte for byte together with
each run's dual-issue count and lane utilization.
"""

import numpy as np

from repro.isa import ProgramBuilder
from repro.kernels import dither, expf
from repro.obs import (
    ObsSink,
    dual_issue_cycles,
    lane_utilization,
    render_timeline,
)
from repro.sim import Allocator, Machine, Memory
from repro.sim.ssr import (
    F_BOUND0, F_RPTR, F_STATUS, F_STRIDE0, F_WPTR, encode_cfg_imm,
)

#: expf COPIFT (n=96, block=32), cycles 900..940 of 1801.
EXPF_WINDOW = "\n".join((
    '  cycle  integer core       FPSS              ',
    '---------------------------------------------',
    '    900  andi               fsub.d  <seq      ',
    '    901  slli               fmv.d  <seq       ',
    '    902  add                fsub.d  <seq      ',
    '    903  lw                 fmadd.d  <seq     ',
    '    904  lw                 fmul.d  <seq      ',
    '    905                     fmadd.d  <seq     ',
    '    906  slli                                 ',
    '    907  add                                  ',
    '    908  sw                 fmadd.d  <seq     ',
    '    909  sw                 fmul.d  <seq      ',
    '    910  lw                 fmul.d  <seq      ',
    '    911                     fadd.d  <seq      ',
    '    912  andi               fsub.d  <seq      ',
    '    913  slli               fmv.d  <seq       ',
    '    914  add                fsub.d  <seq      ',
    '    915  lw                 fmadd.d  <seq     ',
    '    916  lw                 fmul.d  <seq      ',
    '    917                     fmadd.d  <seq     ',
    '    918  slli                                 ',
    '    919  add                                  ',
    '    920  sw                 fmadd.d  <seq     ',
    '    921  sw                 fmul.d  <seq      ',
    '    922  addi               fmul.d  <seq      ',
    '    923  addi               fadd.d  <seq      ',
    '    924  bne                fsub.d  <seq      ',
    '    925                     fmv.d  <seq       ',
    '    926  lw                 fsub.d  <seq      ',
    '    927                     fmadd.d  <seq     ',
    '    928  andi               fmul.d  <seq      ',
    '    929  slli               fmadd.d  <seq     ',
    '    930  add                                  ',
    '    931  lw                                   ',
    '    932  lw                 fmadd.d  <seq     ',
    '    933                     fmul.d  <seq      ',
    '    934  slli               fmul.d  <seq      ',
    '    935  add                fadd.d  <seq      ',
    '    936  sw                 fsub.d  <seq      ',
    '    937  sw                 fmv.d  <seq       ',
    '    938  lw                 fsub.d  <seq      ',
    '    939                     fmadd.d  <seq     ',
))

#: dither COPIFT (n=256, block=32), cycles 1598..1622 of 3196, with
#: static instruction indices.
DITHER_WINDOW = "\n".join((
    '  cycle  integer core       FPSS              ',
    '---------------------------------------------',
    '   1598  xor #103           fmadd.d  <seq     ',
    '   1599  slli #104          cfcvt.d.wu  <seq  ',
    '   1600  srli #105          fmadd.d  <seq     ',
    '   1601  or #106            cfcvt.d.wu  <seq  ',
    '   1602  sw #107            fmadd.d  <seq     ',
    '   1603  add #108           cfcvt.d.wu  <seq  ',
    '   1604  slli #109          fmadd.d  <seq     ',
    '   1605  xor #110           cfcvt.d.wu  <seq  ',
    '   1606  xor #111           fmadd.d  <seq     ',
    '   1607  xor #112           cfcvt.d.wu  <seq  ',
    '   1608  xor #113           fmadd.d  <seq     ',
    '   1609  xor #114           cfcvt.d.wu  <seq  ',
    '   1610  slli #115          fmadd.d  <seq     ',
    '   1611  srli #116          cfcvt.d.wu  <seq  ',
    '   1612  or #117            fmadd.d  <seq     ',
    '   1613  sw #118            cfcvt.d.wu  <seq  ',
    '   1614  add #119           fmadd.d  <seq     ',
    '   1615  slli #120          cfcvt.d.wu  <seq  ',
    '   1616  xor #121           fmadd.d  <seq     ',
    '   1617  xor #122           cfcvt.d.wu  <seq  ',
    '   1618  xor #123           fmadd.d  <seq     ',
    '   1619  xor #124           cfcvt.d.wu  <seq  ',
    '   1620  xor #125           fmadd.d  <seq     ',
    '   1621  slli #126          cfcvt.d.wu  <seq  ',
))


def _observed_run(program, memory=None):
    sink = ObsSink()
    machine = Machine(memory=memory)
    machine.attach_obs(sink, "core")
    result = machine.run(program)
    return sink, result


def _issues(sink):
    """The core's issue-slot events (no DMA marks)."""
    return [e for e in sink.events
            if e.scope == "core" and e.cat in ("issue", "dispatch")]


def _sink(*events):
    """A sink holding ``(lane, ts, name[, args])`` issue events."""
    sink = ObsSink()
    for lane, ts, name, *args in events:
        sink.emit("core", lane, name, ts, 1, "issue",
                  args[0] if args else None)
    return sink


class TestParity:
    def test_expf_copift_window(self):
        instance = expf.build_copift(96, block=32)
        sink, result = _observed_run(instance.program, instance.memory)
        assert result.cycles == 1801
        assert render_timeline(sink, "core", start=900,
                               end=940) == EXPF_WINDOW
        assert dual_issue_cycles(sink, "core") == 556
        assert lane_utilization(sink, "core", result.cycles) == (
            0.6779566907273736, 0.5363686840644086)

    def test_dither_copift_window_with_pcs(self):
        instance = dither.build_copift(256, block=32)
        sink, result = _observed_run(instance.program, instance.memory)
        assert result.cycles == 3196
        assert render_timeline(sink, "core", start=1598, end=1622,
                               show_pc=True) == DITHER_WINDOW
        assert dual_issue_cycles(sink, "core") == 446
        assert lane_utilization(sink, "core", result.cycles) == (
            0.9590112640801002, 0.16082603254067585)


class TestEventCapture:
    def test_int_events(self):
        b = ProgramBuilder()
        b.addi("a0", "a0", 1)
        b.addi("a1", "a1", 1)
        sink, _ = _observed_run(b.build())
        events = _issues(sink)
        assert [e.name for e in events] == ["addi", "addi"]
        assert [e.ts for e in events] == [0, 1]
        assert [e.args["pc"] for e in events] == [0, 1]
        assert all(e.lane == "int" for e in events)

    def test_fp_dispatch_and_issue_both_recorded(self):
        b = ProgramBuilder()
        b.fadd_d("fa0", "fa1", "fa2")
        sink, _ = _observed_run(b.build())
        events = _issues(sink)
        assert sorted((e.lane, e.cat) for e in events) == [
            ("fp", "issue"), ("int", "dispatch")]

    def test_sequencer_flag(self):
        mem = Memory()
        alloc = Allocator(mem)
        xa = alloc.alloc_array("x", np.ones(4))
        ya = alloc.alloc("y", 32)
        b = ProgramBuilder()
        for ssr, field, value in (
                (0, F_STATUS, 1), (0, F_BOUND0, 3), (0, F_STRIDE0, 8),
                (0, F_RPTR, xa),
                (1, F_STATUS, 1), (1, F_BOUND0, 3), (1, F_STRIDE0, 8),
                (1, F_WPTR, ya)):
            b.li("t0", value)
            b.scfgwi("t0", encode_cfg_imm(field, ssr))
        b.ssr_enable()
        b.li("t1", 3)
        b.frep_o("t1", 1)
        b.fadd_d("ft1", "ft0", "fa1")
        b.ssr_disable()
        sink, _ = _observed_run(b.build(), memory=mem)
        replays = [e for e in _issues(sink)
                   if (e.args or {}).get("seq")]
        assert len(replays) == 3
        assert all(e.lane == "fp" for e in replays)

    def test_dma_marks_are_not_issue_slots(self):
        """``dma.start`` also emits a ``cat="dma"`` mark on the int
        lane; the timeline views count only the issue itself."""
        b = ProgramBuilder()
        b.li("a0", 0x100)
        b.li("a1", 0x200)
        b.li("a2", 64)
        b.dma_start("a0", "a1", "a2")
        b.dma_wait()
        sink, _ = _observed_run(b.build(), memory=Memory())
        assert any(e.lane == "int" and e.cat == "dma"
                   for e in sink.events)
        assert lane_utilization(sink, "core", 5) == (1.0, 0.0)
        assert "dma.start #3" in render_timeline(sink, "core",
                                                 show_pc=True)

    def test_disabled_by_default(self):
        b = ProgramBuilder()
        b.addi("a0", "a0", 1)
        machine = Machine()
        machine.run(b.build())
        assert machine.obs is None


class TestAnalysis:
    def test_dual_issue_cycles(self):
        sink = _sink(("int", 5, "addi"), ("fp", 5, "fadd.d"),
                     ("int", 6, "addi"))
        assert dual_issue_cycles(sink, "core") == 1
        assert dual_issue_cycles(sink, "cluster0/core0") == 0

    def test_lane_utilization(self):
        sink = _sink(("int", 0, "addi"), ("int", 1, "addi"),
                     ("fp", 0, "fadd.d"))
        int_util, fp_util = lane_utilization(sink, "core", cycles=4)
        assert int_util == 0.5
        assert fp_util == 0.25

    def test_zero_cycles(self):
        assert lane_utilization(ObsSink(), "core", 0) == (0.0, 0.0)


class TestRendering:
    def test_render_contains_lanes(self):
        sink = _sink(("int", 0, "addi"),
                     ("fp", 1, "fmadd.d", {"seq": True}))
        text = render_timeline(sink, "core")
        assert "integer core" in text
        assert "addi" in text
        assert "fmadd.d  <seq" in text

    def test_gap_elision(self):
        sink = _sink(("int", 0, "addi"), ("int", 100, "addi"))
        text = render_timeline(sink, "core")
        assert "..." in text
        assert len(text.splitlines()) < 10

    def test_window(self):
        sink = _sink(*[("int", c, "addi") for c in range(50)])
        text = render_timeline(sink, "core", start=10, end=12)
        assert "10" in text and "11" in text
        assert "     13" not in text
