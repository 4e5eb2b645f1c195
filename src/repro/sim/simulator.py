"""The accelerator simulator.

Timing model
------------
Instructions are dispatched in program order by the CTRL module (a
4-stage fetch/decode pipeline issuing one instruction every
``CTRL_ISSUE_CYCLES``).  Each functional module executes its own
instructions in order; an instruction starts at::

    max(module free time, CTRL issue time, handshake token times)

and runs for a duration given by the DDR/port transfer model (loads and
saves) or the PE cycle model (COMP).  Handshake tokens carry the
producer's finish timestamp, so producer/consumer overlap emerges
naturally and the makespan reflects the ``max(...)`` structure of
Eq. 12-15 plus all the discretisation the analytical model abstracts
away — the measured few-percent gap between the two reproduces the
paper's estimation-error experiment.

Functional model
----------------
With ``functional=True`` every instruction also moves real data: strips
are gathered from the DRAM image, the PE computes through the
Spatial/Winograd paths of :mod:`repro.arch.pe`, and SAVE applies ReLU /
pooling / re-quantisation and the Figure-5 layout transform before
writing back.  The end-to-end result is compared against the numpy
reference in the integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.arch import layouts, pe
from repro.arch.buffers import PingPongBuffer
from repro.arch.dram import ExternalMemoryModel
from repro.arch.fifo import HandshakeFifo
from repro.arch.params import AcceleratorConfig
from repro.fpga.device import FpgaDevice
from repro.isa.instructions import DeptFlag, Opcode
from repro.isa.program import Program
from repro.winograd.reference import max_pool2d

#: CTRL issue interval (cycles per instruction through the 4-stage
#: instruction pipeline).
CTRL_ISSUE_CYCLES = 2

#: DDR burst/setup cycles per transfer (matches the estimator's
#: GROUP_OVERHEAD_CYCLES together with the COMP pipeline depth).
DDR_FIXED_CYCLES = 64

#: DeptFlag bits as plain ints: the dispatch loop tests ``int & int``
#: instead of building a DeptFlag for every test.
_WAIT_INP = int(DeptFlag.WAIT_INP)
_WAIT_WGT = int(DeptFlag.WAIT_WGT)
_EMIT = int(DeptFlag.EMIT)
_WAIT_FREE = int(DeptFlag.WAIT_FREE)
_FREE_INP = int(DeptFlag.FREE_INP)
_FREE_WGT = int(DeptFlag.FREE_WGT)


@dataclass
class ModuleStats:
    """Activity of one functional module."""

    name: str
    instructions: int = 0
    busy_cycles: int = 0
    finish_time: int = 0

    def utilisation(self, total_cycles: int) -> float:
        return self.busy_cycles / total_cycles if total_cycles else 0.0


@dataclass
class LayerTiming:
    """Start/finish window of one layer's instruction range."""

    layer_name: str
    mode: str
    dataflow: str
    start_cycle: int
    finish_cycle: int

    @property
    def cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


@dataclass
class SimulationResult:
    """Outcome of one program segment run."""

    cycles: int
    frequency_hz: float
    modules: Dict[str, ModuleStats]
    layers: List[LayerTiming] = field(default_factory=list)
    instructions: int = 0
    dram_read_elems: int = 0
    dram_written_elems: int = 0
    trace: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    def layer(self, name: str) -> LayerTiming:
        for timing in self.layers:
            if timing.layer_name == name:
                return timing
        raise KeyError(f"no layer {name!r} in simulation result")

    @staticmethod
    def merge(results: List["SimulationResult"]) -> "SimulationResult":
        """Aggregate sequential segment results (host steps take no
        accelerator time)."""
        if not results:
            raise SimulationError("nothing to merge")
        total = SimulationResult(
            cycles=sum(r.cycles for r in results),
            frequency_hz=results[0].frequency_hz,
            modules={},
            instructions=sum(r.instructions for r in results),
            dram_read_elems=sum(r.dram_read_elems for r in results),
            dram_written_elems=sum(r.dram_written_elems for r in results),
        )
        offset = 0
        for result in results:
            for name, stats in result.modules.items():
                agg = total.modules.setdefault(name, ModuleStats(name))
                agg.instructions += stats.instructions
                agg.busy_cycles += stats.busy_cycles
            for timing in result.layers:
                total.layers.append(
                    LayerTiming(
                        timing.layer_name,
                        timing.mode,
                        timing.dataflow,
                        timing.start_cycle + offset,
                        timing.finish_cycle + offset,
                    )
                )
            if result.trace:
                from repro.sim.trace import TraceRecord

                base = len(total.trace)
                total.trace.extend(
                    TraceRecord(
                        index=base + record.index,
                        opcode=record.opcode,
                        module=record.module,
                        start=record.start + offset,
                        finish=record.finish + offset,
                    )
                    for record in result.trace
                )
            offset += result.cycles
        return total


class AcceleratorSimulator:
    """Simulate one accelerator instance.

    Parameters
    ----------
    cfg:
        Hardware configuration (PI/PO/PT, buffer depths, instances — the
        instance count only divides the DRAM bandwidth share).
    device:
        FPGA platform (frequency and memory system).
    dram:
        The external-memory image (regions must be populated by the
        runtime before running).
    functional:
        Move and compute real data (True) or timing only (False).
    """

    def __init__(
        self,
        cfg: AcceleratorConfig,
        device: FpgaDevice,
        dram: ExternalMemoryModel,
        functional: bool = True,
        trace: bool = False,
    ):
        self.cfg = cfg
        self.device = device
        self.dram = dram
        self.functional = functional
        self.trace = trace
        freq = cfg.frequency_hz
        self.bytes_per_cycle = (
            device.memory.bandwidth_bytes / freq / cfg.instances
        )
        self.feature_bytes = max(1, (cfg.data_width + 7) // 8)
        self.weight_bytes = max(1, (cfg.weight_width + 7) // 8)

    # -- timing helpers ---------------------------------------------------

    def _xfer_cycles(self, elems: int, bytes_per_elem: int,
                     port_elems_per_cycle: float) -> int:
        if elems <= 0:
            return DDR_FIXED_CYCLES
        ddr = elems * bytes_per_elem / self.bytes_per_cycle
        port = elems / port_elems_per_cycle
        return int(math.ceil(max(ddr, port))) + DDR_FIXED_CYCLES

    def _comp_cycles(self, desc: dict) -> int:
        kc, cc = desc["k_count"], desc["c_count"]
        if desc["mode"] == "wino":
            n_tiles = -(-desc["out_w"] // self.cfg.m)
            per_block = pe.winograd_cycles(self.cfg, kc, cc, n_tiles)
            return per_block * len(desc["blocks"])
        r, s = desc["kernel"]
        return pe.spatial_cycles(
            self.cfg, kc, cc, r, s, desc["rows_out"], desc["out_w"]
        )

    # -- functional helpers -----------------------------------------------

    def _load_strip(self, desc: dict) -> np.ndarray:
        """Gather one (possibly padded) input strip from DRAM."""
        lanes = self.cfg.pi
        region = self.dram.region(desc["region"])
        channels, height, width = (
            desc["channels"], desc["height"], desc["width"],
        )
        n_cv = layouts.channel_vectors(channels, lanes)
        y0, rows = desc["y_start"], desc["rows"]
        pad_l, pad_r = desc["pad_left"], desc["pad_right"]
        c0, cc = desc["c0"], desc["c_count"]
        cv0 = c0 // lanes
        cvn = -(-cc // lanes)
        strip = np.zeros(
            (cvn * lanes, rows, width + pad_l + pad_r), dtype=np.float64
        )
        y_lo, y_hi = max(0, y0), min(height, y0 + rows)
        if y_hi > y_lo:
            row_words = n_cv * lanes * width
            block = self.dram.read(
                region.base + y_lo * row_words, (y_hi - y_lo) * row_words
            )
            nrows = y_hi - y_lo
            if desc["layout"] == layouts.SPAT:
                arr = block.reshape(nrows, n_cv, width, lanes)
                chunk = arr[:, cv0 : cv0 + cvn].transpose(1, 3, 0, 2)
            else:
                arr = block.reshape(nrows, width, n_cv, lanes)
                chunk = arr[:, :, cv0 : cv0 + cvn].transpose(2, 3, 0, 1)
            chunk = chunk.reshape(cvn * lanes, nrows, width)
            strip[:, y_lo - y0 : y_hi - y0, pad_l : pad_l + width] = chunk
        return strip

    def _store_rows(self, desc: dict, data: np.ndarray) -> None:
        """Read-modify-write output rows into the destination layout."""
        lanes = self.cfg.pi
        region = self.dram.region(desc["region"])
        channels = desc["dst_channels"]
        width = desc["dst_width"]
        n_cv = layouts.channel_vectors(channels, lanes)
        k0 = desc["k0"]
        kc, rows_dst = data.shape[0], data.shape[1]
        y0 = desc["y_dst0"]
        row_words = n_cv * lanes * width
        base = region.base + y0 * row_words
        block = self.dram.read(base, rows_dst * row_words)
        if desc["dst_layout"] == layouts.SPAT:
            arr = block.reshape(rows_dst, n_cv, width, lanes)
            flat = arr.transpose(1, 3, 0, 2).reshape(
                n_cv * lanes, rows_dst, width
            ).copy()
            flat[k0 : k0 + kc] = data[:, :, :width]
            arr = flat.reshape(n_cv, lanes, rows_dst, width).transpose(2, 0, 3, 1)
        else:
            arr = block.reshape(rows_dst, width, n_cv, lanes)
            flat = arr.transpose(2, 3, 0, 1).reshape(
                n_cv * lanes, rows_dst, width
            ).copy()
            flat[k0 : k0 + kc] = data[:, :, :width]
            arr = flat.reshape(n_cv, lanes, rows_dst, width).transpose(2, 3, 0, 1)
        self.dram.write(base, np.ascontiguousarray(arr).reshape(-1))

    # -- main loop -------------------------------------------------------

    def run(self, program: Program) -> SimulationResult:
        """Execute one program segment; returns timing (and, in
        functional mode, leaves the DRAM image updated)."""
        descriptors = program.metadata.get("descriptors")
        if descriptors is None:
            raise SimulationError(
                "program has no descriptors; run a compiler-produced "
                "program (binary round-trips drop host-side metadata)"
            )
        cfg = self.cfg

        fifos = {
            "inp_data": HandshakeFifo("inp_data", depth=2),
            "inp_free": HandshakeFifo("inp_free", depth=2, preload=2),
            "wgt_data": HandshakeFifo("wgt_data", depth=2),
            "wgt_free": HandshakeFifo("wgt_free", depth=2, preload=2),
            "out_data": HandshakeFifo("out_data", depth=2),
            "out_free": HandshakeFifo("out_free", depth=2, preload=2),
        }
        modules = {
            name: ModuleStats(name)
            for name in ("LOAD_INP", "LOAD_WGT", "COMP", "SAVE")
        }
        module_time = {name: 0 for name in modules}
        module_of = {
            Opcode.LOAD_INP: "LOAD_INP",
            Opcode.LOAD_WGT: "LOAD_WGT",
            Opcode.LOAD_BIAS: "LOAD_WGT",
            Opcode.COMP: "COMP",
            Opcode.SAVE: "SAVE",
        }

        if self.functional:
            input_buf = PingPongBuffer("input", cfg.input_buffer_vecs)
            weight_buf = PingPongBuffer("weight", cfg.weight_buffer_vecs)
            output_buf = PingPongBuffer("output", cfg.output_buffer_vecs)
            bias_buf: Optional[np.ndarray] = None
            accum: Optional[np.ndarray] = None

        start_cycle: Dict[int, int] = {}
        finish_cycle: Dict[int, int] = {}
        trace_records = []
        read0 = self.dram.total_read_elems
        written0 = self.dram.total_written_elems

        for idx, inst in enumerate(program):
            desc = descriptors[idx]
            opcode = inst.opcode
            mod = module_of[opcode]
            start = max(module_time[mod], idx * CTRL_ISSUE_CYCLES)
            dept = int(inst.dept_flag)

            # -- token waits ---------------------------------------------
            if opcode in (Opcode.LOAD_INP, Opcode.LOAD_WGT):
                fifo = "inp_free" if opcode == Opcode.LOAD_INP else "wgt_free"
                if dept & _WAIT_FREE:
                    start = max(start, fifos[fifo].pop())
            elif opcode == Opcode.COMP:
                if dept & _WAIT_INP:
                    start = max(start, fifos["inp_data"].pop())
                if dept & _WAIT_WGT:
                    start = max(start, fifos["wgt_data"].pop())
                if dept & _WAIT_FREE:
                    start = max(start, fifos["out_free"].pop())
            elif opcode == Opcode.SAVE:
                if dept & _WAIT_INP:
                    start = max(start, fifos["out_data"].pop())

            # -- duration ---------------------------------------------------
            if opcode == Opcode.LOAD_INP:
                duration = self._xfer_cycles(
                    desc["elems"], self.feature_bytes, cfg.pi * cfg.pt
                )
            elif opcode == Opcode.LOAD_WGT:
                duration = self._xfer_cycles(
                    desc["elems"], self.weight_bytes,
                    cfg.pi * cfg.po * cfg.pt,
                )
            elif opcode == Opcode.LOAD_BIAS:
                duration = self._xfer_cycles(
                    desc["elems"], self.weight_bytes, cfg.po
                )
            elif opcode == Opcode.COMP:
                duration = self._comp_cycles(desc)
            elif opcode == Opcode.SAVE:
                duration = self._xfer_cycles(
                    desc["elems"], self.feature_bytes, cfg.po * cfg.pt
                )
            else:
                raise SimulationError(f"unhandled opcode {opcode}")

            finish = start + duration
            module_time[mod] = finish
            stats = modules[mod]
            stats.instructions += 1
            stats.busy_cycles += duration
            stats.finish_time = finish
            start_cycle[idx] = start
            finish_cycle[idx] = finish
            if self.trace:
                from repro.sim.trace import TraceRecord

                trace_records.append(
                    TraceRecord(
                        index=idx, opcode=opcode.name, module=mod,
                        start=start, finish=finish,
                    )
                )

            # -- token emission --------------------------------------------
            if opcode == Opcode.LOAD_INP and dept & _EMIT:
                fifos["inp_data"].push(finish)
            elif opcode == Opcode.LOAD_WGT and dept & _EMIT:
                fifos["wgt_data"].push(finish)
            elif opcode == Opcode.COMP:
                if dept & _EMIT:
                    fifos["out_data"].push(finish)
                if dept & _FREE_INP:
                    fifos["inp_free"].push(finish)
                if dept & _FREE_WGT:
                    fifos["wgt_free"].push(finish)
            elif opcode == Opcode.SAVE and dept & _FREE_INP:
                fifos["out_free"].push(finish)

            # -- functional data movement ---------------------------------
            if not self.functional:
                continue
            if opcode == Opcode.LOAD_INP:
                strip = self._load_strip(desc)
                input_buf.write(desc["half"], strip, strip.size // cfg.pi)
            elif opcode == Opcode.LOAD_WGT:
                region = self.dram.region(desc["region"])
                flat = self.dram.read(
                    region.base + desc["offset"], desc["elems"]
                )
                weight_buf.write(
                    desc["half"],
                    flat.reshape(desc["shape"]),
                    desc["elems"] // (cfg.pi * cfg.po),
                )
            elif opcode == Opcode.LOAD_BIAS:
                region = self.dram.region(desc["region"])
                bias_buf = self.dram.read(region.base, desc["count"])
            elif opcode == Opcode.COMP:
                strip = input_buf.read(desc["inp_half"]).data
                wgt = weight_buf.read(desc["wgt_half"]).data
                kc, cc = desc["k_count"], desc["c_count"]
                if desc["clear"]:
                    accum = np.zeros(
                        (kc, desc["rows_out"], desc["out_w"]),
                        dtype=np.float64,
                    )
                    if bias_buf is not None:
                        accum += bias_buf[
                            desc["k0"] : desc["k0"] + kc, None, None
                        ]
                if accum is None:
                    raise SimulationError("COMP without prior accum_clear")
                if desc["mode"] == "spat":
                    out = pe.spatial_compute(
                        strip[:cc], wgt[0], desc["stride"], desc["rows_out"]
                    )
                    accum += out[:, :, : desc["out_w"]]
                else:
                    scales = desc.get("wgt_scales")
                    for b, (dr, ds) in enumerate(desc["blocks"]):
                        coeffs = wgt[b]
                        if scales is not None:
                            # Undo the per-position power-of-two weight
                            # scaling (a shift in hardware) before the
                            # output transform.
                            coeffs = coeffs * scales[b]
                        partial, _ = pe.winograd_compute(
                            strip[:cc, dr : dr + cfg.pt, ds:],
                            coeffs,
                            cfg.pt,
                            out_w=desc["out_w"],
                        )
                        accum += partial[:, : desc["rows_out"], : desc["out_w"]]
                if desc["flush"]:
                    out = accum
                    if desc["relu"]:
                        out = np.maximum(out, 0.0)
                    if inst.quan_param > 0:
                        out = cfg.feature_type.quantize(out)
                    output_buf.write(
                        desc["out_half"], out, out.size // cfg.po
                    )
                    accum = None
            elif opcode == Opcode.SAVE:
                data = output_buf.read(desc["half"]).data
                valid = data[:, : desc["rows_valid"], :]
                pool = desc["pool"]
                if pool > 1:
                    valid = max_pool2d(valid, pool, pool)
                    desc = dict(desc, y_dst0=desc["y0_out"] // pool)
                else:
                    desc = dict(desc, y_dst0=desc["y0_out"])
                if valid.shape[1]:
                    self._store_rows(desc, valid)

        total_cycles = max(finish_cycle.values(), default=0)
        layer_timings = []
        for marker in program.markers:
            indices = range(marker.start, marker.end)
            layer_timings.append(
                LayerTiming(
                    layer_name=marker.layer_name,
                    mode=marker.mode,
                    dataflow=marker.dataflow,
                    start_cycle=min(start_cycle[i] for i in indices),
                    finish_cycle=max(finish_cycle[i] for i in indices),
                )
            )
        return SimulationResult(
            cycles=total_cycles,
            frequency_hz=cfg.frequency_hz,
            modules=modules,
            layers=layer_timings,
            instructions=len(program),
            dram_read_elems=self.dram.total_read_elems - read0,
            dram_written_elems=self.dram.total_written_elems - written0,
            trace=trace_records,
        )
