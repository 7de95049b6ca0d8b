"""Functional engine: executes ScaleDeep ISA programs with real data.

This is the instruction-level counterpart of the analytical model in
:mod:`repro.sim.perf`: compiled programs run on a machine of MemHeavy
scratchpads and CompHeavy tiles, with MEMTRACK data-flow trackers
enforcing the synchronization of Sec 3.2.4, and per-instruction cycle
costs derived from the tile micro-architecture.  Results are validated
against the numpy golden model.

Engine conventions (the compiler's code generator follows these):

* Data-instruction operands are immediates — the data flow of a DNN is
  static, so the generator resolves every address at compile time (the
  scalar/branch instructions and register-indirect operands still
  execute for handwritten looped programs).
* ``port`` operands carry flattened MemHeavy tile ids
  (:meth:`Machine.mem_tile_id`); port ``EXTERNAL_PORT`` addresses the
  node's external memory.
* NDCONV/MATMUL/NDSUBSAMP sizes pack 2-D extents via
  :func:`repro.sim.machine.pack_shape`; DMA/tracker/vector sizes are
  raw word counts.
* A blocked instruction (tracker not ready) retries next round; if a
  whole round passes with every live tile blocked, the engine raises a
  deadlock error naming the blocked tiles.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dnn.layers import Activation, PoolMode
from repro.errors import SimulationError, SimulationTimeout
from repro.functional import tensor_ops as ops
from repro.isa.instructions import (
    OPERAND_NAMES,
    Instruction,
    InstrGroup,
    Opcode,
)
from repro.isa.program import Program
from repro.sim.machine import (
    CompTile,
    Machine,
    MemTile,
    REG_OPERAND_MASK,
    has_reg_operands,
    instruction_accesses,
    is_reg_operand,
    unpack_shape,
)
from repro.sim.tracker import AccessVerdict, TrackerPhase
from repro.telemetry.core import NullTelemetry, Telemetry, get_telemetry

#: Port value addressing external memory instead of a MemHeavy tile.
EXTERNAL_PORT = 0xFFFF

#: Data-movement opcodes whose cycle costs count as DMA time in the
#: per-tile stall-cause attribution (telemetry ``dma_cycles`` counter).
_DMA_OPCODES = frozenset(
    (Opcode.DMALOAD, Opcode.DMASTORE, Opcode.PREFETCH)
)

#: Tracker phases a read / a write is blocked in (block-reason values).
_UPDATING = TrackerPhase.UPDATING.value
_READABLE = TrackerPhase.READABLE.value

#: Fixed per-instruction issue overheads (cycles).
_SETUP_COARSE = 8
_SETUP_OFFLOAD = 4
_SETUP_DMA = 8

#: Activation-function codes for NDACTFN's fn_type operand.
ACT_CODES = {
    Activation.RELU: 0,
    Activation.TANH: 1,
    Activation.SIGMOID: 2,
    Activation.SOFTMAX: 3,
    Activation.NONE: 4,
}
_CODE_TO_ACT = {v: k for k, v in ACT_CODES.items()}

#: Sampling codes for NDSUBSAMP's samp_type operand.
SAMP_CODES = {PoolMode.MAX: 0, PoolMode.AVG: 1}
_CODE_TO_SAMP = {v: k for k, v in SAMP_CODES.items()}

#: Extra NDUPSAMP mode: zero-insertion dilation (the error expansion
#: that turns a strided convolution's BP into a stride-1 full conv).
UPSAMP_ZERO_INSERT = 2


@dataclass
class RunReport:
    """Statistics of one engine run."""

    cycles: int
    instructions: int
    rounds: int
    blocked_reads: int
    blocked_writes: int
    #: Sum of per-tile execution cycles excluding tracker stalls.  This
    #: is the fusion-invariant cost: superop execution compresses stall
    #: cycles (so ``cycles``/``rounds`` may shrink) but charges every
    #: covered instruction its decoded per-instruction cost, keeping
    #: ``busy_cycles`` bit-identical to per-instruction execution.
    busy_cycles: int = 0

    def describe(self) -> str:
        return (
            f"{self.instructions} instructions over {self.cycles} cycles "
            f"({self.busy_cycles} busy, {self.rounds} scheduler rounds, "
            f"{self.blocked_reads}r/{self.blocked_writes}w tracker blocks)"
        )


class _Decoded:
    """One pre-decoded instruction slot of a tile's flat op table.

    Decode resolves everything static once per program: the gated
    address quads ``(trackers, port, addr, count)`` of the tracked ports
    (external memory is never gated, so it has none), the cycle cost,
    and one flat ``args`` tuple for a module-level kernel pair — the
    engine's only semantics of each data opcode.  ``fn(state, *args)``
    runs the instruction on one image through the port readers/writers
    in ``args``; ``fn_batch(state, *args)`` runs it on a
    :class:`BatchState`.  The entry holds no closure and no reference to
    the engine.  ``memo`` backs the gate's blocked-verdict replay
    (:meth:`Engine._gate_quads`).  An instruction whose operands cannot
    execute decodes to the :func:`_raise` kernel, so its error surfaces
    when a tile issues it, never at decode.

    What only issue time can resolve — scalar/control, register-indirect
    operands, tracker arming on a port that must raise — keeps
    ``fallback=True`` and issues through :meth:`Engine._execute`.
    """

    is_super = False
    count = 1
    expire = ()

    __slots__ = (
        "instr", "fallback", "fn", "fn_batch", "args", "reads", "writes",
        "cost", "memo",
    )

    def __init__(
        self,
        instr: Instruction,
        fallback: bool = False,
        fn=None,
        fn_batch=None,
        args=(),
        reads=(),
        writes=(),
        cost: int = 0,
    ) -> None:
        self.instr = instr
        self.fallback = fallback
        self.fn = fn
        self.fn_batch = fn_batch
        self.args = args
        self.reads = reads
        self.writes = writes
        self.cost = cost
        self.memo = None


class _Super:
    """One superop slot: a fused run of instructions executed at once.

    Placed at the run's first pc of a fused op table (member pcs hold
    per-instruction fallback sentinels that are skipped over).  Carries
    the *external* tracker quads to gate atomically, the pre-bound
    tracker ranges to force-expire on completion (the exact end state of
    the internal handshakes it elides), and the cycle cost pre-summed
    from the members' decoded per-instruction costs — so reports stay
    reconciled with per-instruction execution.  It has the call shape of
    :class:`_Decoded`: ``fn`` and ``fn_batch`` are both the superop's one
    kernel, called as ``fn(state, *args)`` on a :class:`BatchState` —
    the engine's batch-1 view of the machine's own scratchpads in
    single-image runs.
    """

    is_super = True
    fallback = False

    __slots__ = (
        "kind", "start", "end", "count", "cost", "fn", "fn_batch", "args",
        "reads", "writes", "expire", "label", "memo",
    )

    def __init__(
        self, kind, start, end, cost, fn, args, reads, writes, expire,
    ) -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.count = end - start
        self.cost = cost
        self.fn = self.fn_batch = fn
        self.args = args
        self.reads = reads
        self.writes = writes
        self.expire = expire
        self.label = f"superop.{kind}[{start}:{end}]"
        self.memo = None


def _tracker_files(entry) -> tuple:
    """The distinct tracker files an entry's gate touches, in order."""
    files: list = []
    for quad in entry.reads + entry.writes:
        if quad[0] not in files:  # TrackerFile compares by identity
            files.append(quad[0])
    return tuple(files)


class _RunClock:
    """The engine's scheduler-round counter.  The telemetry hooks and
    the DMA fault injector read the round from here, so neither has to
    reference the engine."""

    __slots__ = ("rounds",)

    def __init__(self) -> None:
        self.rounds = 0


class _DmaFlips:
    """Seeded dma-bitflip fault injection (a
    :class:`repro.faults.model.FaultMask`, duck-typed — ``dma_flip_rate``
    and ``spec.seed`` suffice).  Flips are drawn from a named RNG stream
    so a given seed corrupts the same transfers in every run."""

    __slots__ = ("rate", "rng", "count", "telemetry", "clock")

    def __init__(self, faults, telemetry, clock: _RunClock) -> None:
        self.rate = float(getattr(faults, "dma_flip_rate", 0.0) or 0.0)
        seed = getattr(getattr(faults, "spec", None), "seed", 0)
        self.rng = random.Random(f"scaledeep-dma:{seed}")
        self.count = 0
        self.telemetry = telemetry if telemetry.enabled else None
        self.clock = clock

    def payload(self, data: np.ndarray, tile_id: str) -> np.ndarray:
        """Copy a DMA transfer's words, injecting a sign-bit flip on one
        word when a dma-bitflip fault fires for this transfer."""
        out = np.array(data, dtype=np.float32)
        if self.rate and out.size and self.rng.random() < self.rate:
            flat = out.reshape(-1)
            index = self.rng.randrange(flat.size)
            flat[index] = -flat[index]
            self.count += 1
            tel = self.telemetry
            if tel is not None:
                tel.instant(
                    "fault.dma_flip", "faults", ("faults", "dma-bitflip"),
                    self.clock.rounds, tile=tile_id, index=index,
                )
                tel.count("faults", "dma_flips")
        return out


def _observe_dma(tel, comp: CompTile, size: int) -> None:
    """One DMA transfer's telemetry: the per-tile byte counter (as a
    timestamped sample, so the Chrome trace plots a series) and the
    transfer-size distribution metric."""
    tel.count(
        f"tile/{comp.tile_id}", "dma_bytes", 4 * size, ts=comp.cycles
    )
    tel.observe("engine.dma", "transfer_bytes", 4 * size)


def _external_io(ext: np.ndarray):
    """The (reader, writer) pair of external memory ``ext``."""

    def read(addr: int, count: int) -> np.ndarray:
        return ext[addr : addr + count]

    def write(addr: int, data: np.ndarray, accumulate: bool) -> None:
        flat = data.reshape(-1).astype(np.float32)
        if accumulate:
            ext[addr : addr + flat.size] += flat
        else:
            ext[addr : addr + flat.size] = flat

    return read, write


# ----------------------------------------------------------------------
# Decoded-instruction kernels.  Each data opcode has a single-image body
# and a batched body over one shared flat ``args`` tuple; both take the
# run's state first (the single-image bodies ignore it and move words
# through the pre-bound port readers ``rd`` and writers ``wr``).  The
# frozen engine counts and answers in the tests pin their outputs bit
# for bit.
# ----------------------------------------------------------------------
_ZERO_BIAS = np.zeros(1, dtype=np.float32)


def _raise(state, error, args) -> None:
    """An instruction whose operands cannot execute: raise its decode
    error (a fresh ``error(*args)``) when the tile issues it."""
    raise error(*args)


def _conv(state, rd, wr, in_port, out_port, in_addr, kernel_addr,
          out_addr, h, w, k, stride, pad, accum) -> None:
    x = rd(in_addr, h * w)
    kern = rd(kernel_addr, k * k)
    out = ops.conv2d_forward(
        x.reshape(1, h, w), kern.reshape(1, 1, k, k), _ZERO_BIAS,
        stride, pad,
    )
    wr(out_addr, out, accum)


def _conv_batch(state, rd, wr, in_port, out_port, in_addr, kernel_addr,
                out_addr, h, w, k, stride, pad, accum) -> None:
    x = state.read(in_port, in_addr, h * w)
    kern = state.read(in_port, kernel_addr, k * k)
    out = ops.conv2d_plane_batched(
        x.reshape(-1, h, w), kern.reshape(-1, k, k), stride, pad,
    )
    state.write(out_port, out_addr, out, accum)


def _matmul(state, rd_vec, rd_mat, wr, in1_port, in2_port, out_port,
            in1_addr, in2_addr, out_addr, n, rows, cols, accum) -> None:
    vec = rd_vec(in1_addr, n)
    mat = rd_mat(in2_addr, rows * cols).reshape(rows, cols)
    wr(out_addr, mat @ vec, accum)


def _matmul_batch(state, rd_vec, rd_mat, wr, in1_port, in2_port, out_port,
                  in1_addr, in2_addr, out_addr, n, rows, cols,
                  accum) -> None:
    vec = state.read(in1_port, in1_addr, n)
    mat = state.read(in2_port, in2_addr, rows * cols).reshape(
        -1, rows, cols
    )
    state.write(out_port, out_addr, ops.matmul_rows(mat, vec), accum)


def _actfn(state, rd, wr, port, out_port, in_addr, out_addr, size,
           fn_act) -> None:
    data = rd(in_addr, size)
    wr(out_addr, ops.activate(data.copy(), fn_act), False)


def _actfn_batch(state, rd, wr, port, out_port, in_addr, out_addr, size,
                 fn_act) -> None:
    data = state.read(port, in_addr, size)
    state.write(
        out_port, out_addr, ops.activate_rows(data.copy(), fn_act), False
    )


def _actbp(state, rd, wr, port, out_port, err_addr, act_addr, out_addr,
           size, fn_act) -> None:
    err = rd(err_addr, size)
    act = rd(act_addr, size)
    wr(out_addr, ops.activate_backward(err.copy(), act, fn_act), False)


def _actbp_batch(state, rd, wr, port, out_port, err_addr, act_addr,
                 out_addr, size, fn_act) -> None:
    err = state.read(port, err_addr, size)
    act = state.read(port, act_addr, size)
    state.write(
        out_port, out_addr, ops.activate_backward(err.copy(), act, fn_act),
        False,
    )


def _subsamp(state, rd, wr, port, out_port, in_addr, out_addr, h, w,
             window, stride, mode) -> None:
    x = rd(in_addr, h * w)
    out, _ = ops.pool_forward(x.reshape(1, h, w), window, stride, 0, mode)
    wr(out_addr, out, False)


def _subsamp_batch(state, rd, wr, port, out_port, in_addr, out_addr, h, w,
                   window, stride, mode) -> None:
    # Batch rides the channel axis: pool_forward pools each leading-axis
    # plane independently.
    x = state.read(port, in_addr, h * w)
    out, _ = ops.pool_forward(x.reshape(-1, h, w), window, stride, 0, mode)
    state.write(out_port, out_addr, out, False)


# NDUPSAMP, one pair per mode; ``out_h``/``out_w`` is the upsampled
# extent and the max mode's original feature sits right after the error.
def _upsamp_zero(state, rd, wr, port, out_port, in_addr, out_addr, h, w,
                 window, stride, out_h, out_w) -> None:
    err = rd(in_addr, h * w).reshape(1, h, w)
    up = np.zeros((1, out_h, out_w), dtype=np.float32)
    up[0, ::stride, ::stride] = err[0]
    wr(out_addr, up, False)


def _upsamp_zero_batch(state, rd, wr, port, out_port, in_addr, out_addr,
                       h, w, window, stride, out_h, out_w) -> None:
    err = state.read(port, in_addr, h * w).reshape(-1, h, w)
    up = np.zeros((err.shape[0], out_h, out_w), dtype=np.float32)
    up[:, ::stride, ::stride] = err
    state.write(out_port, out_addr, up, False)


def _upsamp_max(state, rd, wr, port, out_port, in_addr, out_addr, h, w,
                window, stride, out_h, out_w) -> None:
    err = rd(in_addr, h * w).reshape(1, h, w)
    original = rd(in_addr + h * w, out_h * out_w).reshape(1, out_h, out_w)
    _, argmax = ops.pool_forward(original, window, stride, 0, PoolMode.MAX)
    up = ops.pool_backward(
        err.copy(), (1, out_h, out_w), window, stride, 0, PoolMode.MAX,
        argmax,
    )
    wr(out_addr, up, False)


def _upsamp_max_batch(state, rd, wr, port, out_port, in_addr, out_addr,
                      h, w, window, stride, out_h, out_w) -> None:
    err = state.read(port, in_addr, h * w).reshape(-1, h, w)
    original = state.read(
        port, in_addr + h * w, out_h * out_w
    ).reshape(-1, out_h, out_w)
    _, argmax = ops.pool_forward(original, window, stride, 0, PoolMode.MAX)
    up = ops.pool_backward(
        err.copy(), original.shape, window, stride, 0, PoolMode.MAX, argmax,
    )
    state.write(out_port, out_addr, up, False)


def _upsamp_avg(state, rd, wr, port, out_port, in_addr, out_addr, h, w,
                window, stride, out_h, out_w) -> None:
    err = rd(in_addr, h * w).reshape(1, h, w)
    up = ops.pool_backward(
        err.copy(), (1, out_h, out_w), window, stride, 0, PoolMode.AVG,
        np.empty(0),
    )
    wr(out_addr, up, False)


def _upsamp_avg_batch(state, rd, wr, port, out_port, in_addr, out_addr,
                      h, w, window, stride, out_h, out_w) -> None:
    err = state.read(port, in_addr, h * w).reshape(-1, h, w)
    up = ops.pool_backward(
        err.copy(), (err.shape[0], out_h, out_w), window, stride, 0,
        PoolMode.AVG, np.empty(0),
    )
    state.write(out_port, out_addr, up, False)


_UPSAMP_KERNELS = {
    UPSAMP_ZERO_INSERT: (_upsamp_zero, _upsamp_zero_batch),
    SAMP_CODES[PoolMode.MAX]: (_upsamp_max, _upsamp_max_batch),
    SAMP_CODES[PoolMode.AVG]: (_upsamp_avg, _upsamp_avg_batch),
}


def _accum(state, rd, wr, port, src_addr, dst_addr, size) -> None:
    wr(dst_addr, rd(src_addr, size), True)


def _accum_batch(state, rd, wr, port, src_addr, dst_addr, size) -> None:
    state.write(port, dst_addr, state.read(port, src_addr, size), True)


def _vecmul(state, rd, wr, port, in1_addr, in2_addr, out_addr,
            size) -> None:
    wr(out_addr, rd(in1_addr, size) * rd(in2_addr, size), False)


def _vecmul_batch(state, rd, wr, port, in1_addr, in2_addr, out_addr,
                  size) -> None:
    a = state.read(port, in1_addr, size)
    b = state.read(port, in2_addr, size)
    state.write(port, out_addr, a * b, False)


def _wupdate(state, rd, wr, port, weight_addr, grad_addr, size,
             lr) -> None:
    # Apply-and-consume: the gradient region is cleared after the update
    # so the next iteration's WG accumulation starts fresh.
    grad = rd(grad_addr, size).copy()
    wr(weight_addr, -lr * grad, True)
    wr(grad_addr, np.zeros(size, dtype=np.float32), False)


def _wupdate_batch(state, rd, wr, port, weight_addr, grad_addr, size,
                   lr) -> None:
    grad = state.read(port, grad_addr, size).copy()
    state.write(port, weight_addr, -lr * grad, True)
    state.write(port, grad_addr, np.zeros_like(grad), False)


def _dma(state, rd, wr, src_port, src_addr, dst_port, dst_addr, size,
         accum, flips, tel, comp) -> None:
    """DMALOAD/DMASTORE/PREFETCH; ``flips`` is the engine's
    :class:`_DmaFlips` when dma-bitflip faults are on, ``tel`` the
    telemetry when enabled (else None)."""
    if flips is None:
        data = np.array(rd(src_addr, size), dtype=np.float32)
    else:
        data = flips.payload(rd(src_addr, size), comp.tile_id)
    wr(dst_addr, data, accum)
    if tel is not None:
        _observe_dma(tel, comp, size)


def _dma_batch(state, rd, wr, src_port, src_addr, dst_port, dst_addr,
               size, accum, flips, tel, comp) -> None:
    # make_batch refuses dma-bitflip faults, so the payload is a plain
    # copy here.
    data = state.read(src_port, src_addr, size)
    state.write(dst_port, dst_addr, np.array(data, dtype=np.float32), accum)
    if tel is not None:
        _observe_dma(tel, comp, size)


def _passbuff(state) -> None:
    """PASSBUFF_RD/WR: streaming FIFO setup; data moves with the
    consuming compute instruction, only the handshake costs cycles."""


def _arm(state, trackers, addr, size, num_updates, num_reads) -> None:
    trackers.arm(addr, size, num_updates, num_reads)


# Superop kernels: each is written once for a leading batch axis and
# moves words through the state's read/write, so one kernel serves
# batched runs and (on the engine's batch-1 _ImageState) single images.
def _load_run(state, moves, tel, comp) -> None:
    for src_port, src_addr, dst_port, dst_addr, size, accum in moves:
        # No dma payload: fused decode and make_batch refuse dma-flip
        # faults, and BatchState.write always copies.
        state.write(
            dst_port, dst_addr, state.read(src_port, src_addr, size), accum,
        )
        if tel is not None:
            _observe_dma(tel, comp, size)


def _conv_block(state, in_port, in_end, h, w, k, stride, pad, out_size,
                n_features, pre_base, bias_base, plan, fn_act, out_port,
                home_port, home_addr) -> None:
    bias = state.read(out_port, bias_base, n_features * out_size)
    pre, act = ops.conv_block_forward(
        state.words(in_port, in_end), plan, k, stride, pad, (h, w),
        out_size, n_features, bias, fn_act,
    )
    state.write(out_port, pre_base, pre, False)
    state.write(home_port, home_addr, act, False)


def _fc_block(state, vec_port, mat_port, pre_port, home_port, n, rows,
              vec_addr, mat_addr, pre_addr, bias_addr, home_addr,
              fn_act) -> None:
    mats = state.read(mat_port, mat_addr, rows * n).reshape(-1, rows, n)
    vecs = state.read(vec_port, vec_addr, n)
    bias = state.read(pre_port, bias_addr, rows)
    pre, act = ops.fc_block_forward(mats, vecs, bias, fn_act)
    state.write(pre_port, pre_addr, pre, False)
    state.write(home_port, home_addr, act, False)


def _pool_run(state, groups) -> None:
    # Batch rides the plane axis: pool_forward pools each leading-axis
    # plane independently.
    for (port, in_addr, words, h, w, window, stride, mode, out_port,
         out_addr) in groups:
        x = state.read(port, in_addr, words)
        out, _ = ops.pool_forward(
            x.reshape(-1, h, w), window, stride, 0, mode
        )
        state.write(out_port, out_addr, out, False)


def _tracker_emitter(tel, clock: _RunClock, mem_tile_id: int):
    """A tracker-file event hook timestamped by the engine's round."""

    def emit(event: str, start: int, size: int, phase: str) -> None:
        tel.instant(
            f"tracker.{event}", "engine.tracker",
            ("engine/trackers", f"mem {mem_tile_id}"), clock.rounds,
            addr_range=[start, start + size], phase=phase,
        )
        tel.count(f"mem/{mem_tile_id}", f"tracker_{event}")

    return emit


#: Batch mirrors grow in steps of this many words (16 KB per image).
MIRROR_GRANULE = 4096


class BatchState:
    """Per-image scratchpad mirrors behind batched execution.

    Each MemHeavy tile (and the external memory) gains a lazily
    materialised ``(batch, width)`` mirror of its prefix ``[0, width)``,
    grown on demand, in :data:`MIRROR_GRANULE` steps, to the highest
    word the run reaches — so memory follows the data a program
    touches, not 512 KB per tile per image: a ResNet18-proxy
    ``run_batch`` x16 mirrors about 31 MB, not 504 MB, and the
    ``engine-stream`` benchmark's peak RSS is about 240 MB, not 660.
    New words are seeded from the machine's contents, so preloaded
    weights and biases replicate to every image, while inputs written
    through :meth:`write` stay per-image.  The seeding is exact at any
    growth: a batched run writes only to the mirrors, so the machine's
    words keep their preloaded state.  Trackers, registers and program
    counters remain shared: compiled forward programs are
    data-independent, so one control-flow trace drives the whole
    minibatch.
    """

    def __init__(self, engine: "Engine", batch: int) -> None:
        if batch < 1:
            raise SimulationError(f"batch size must be >= 1, got {batch}")
        self.machine = engine.machine
        self.external = engine.external
        self.batch = batch
        self._mem: Dict[int, np.ndarray] = {}

    def words(self, port: int, end: int) -> np.ndarray:
        """The mirror for ``port``, covering at least ``[0, end)`` (or
        the whole scratchpad, if that is shorter)."""
        arr = self._mem.get(port)
        if arr is None or arr.shape[1] < end:
            arr = self._grow(port, arr, end)
        return arr

    def _source(self, port: int) -> np.ndarray:
        if port == EXTERNAL_PORT:
            return self.external
        return self.machine.mem_tile(port).words

    def _grow(self, port: int, arr: Optional[np.ndarray], end: int
              ) -> np.ndarray:
        source = self._source(port)
        old = 0 if arr is None else arr.shape[1]
        width = min(-(-end // MIRROR_GRANULE) * MIRROR_GRANULE, source.size)
        if arr is not None and width <= old:
            return arr
        grown = np.empty((self.batch, width), dtype=source.dtype)
        if arr is not None:
            grown[:, :old] = arr
        grown[:, old:] = source[old:width]
        self._mem[port] = grown
        return grown

    def _reach(self, port: int, addr: int, end: int, verb: str
               ) -> np.ndarray:
        """The mirror of ``port`` covering ``[addr, end)``, bounds-checked
        against the whole scratchpad."""
        arr = self._mem.get(port)
        if addr >= 0 and arr is not None and end <= arr.shape[1]:
            return arr
        size = self._source(port).size
        if addr < 0 or end > size:
            raise SimulationError(
                f"port {port}: batched {verb} [{addr}, {end}) out "
                f"of bounds ({size} words)"
            )
        return self._grow(port, arr, end)

    def read(self, port: int, addr: int, count: int) -> np.ndarray:
        end = addr + count
        return self._reach(port, addr, end, "read")[:, addr:end]

    def write(
        self, port: int, addr: int, data: np.ndarray, accumulate: bool
    ) -> None:
        # astype always copies — mirrors MemTile.write, and keeps an
        # accumulating NDACCUM safe when source and target ranges alias.
        flat = np.asarray(data).astype(np.float32).reshape(self.batch, -1)
        count = flat.shape[1]
        words = self._reach(port, addr, addr + count, "write")
        if accumulate:
            words[:, addr : addr + count] += flat
        else:
            words[:, addr : addr + count] = flat


class _ImageState(BatchState):
    """The batch-1 case of :class:`BatchState`: ``(1, words)`` views of
    the machine's own scratchpads, so writes land in the machine.
    Superop kernels run on this outside batched execution — each kernel
    is written once, for a leading batch axis."""

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, 1)

    def _grow(self, port: int, arr: Optional[np.ndarray], end: int
              ) -> np.ndarray:
        arr = self._mem[port] = self._source(port)[None, :]
        return arr


class Engine:
    """Round-robin interpreter over a :class:`Machine`."""

    def __init__(
        self,
        machine: Machine,
        external_words: int = 1 << 22,
        max_rounds: int = 10_000_000,
        trace: bool = False,
        trace_limit: int = 100_000,
        telemetry: "Telemetry | NullTelemetry | None" = None,
        wall_clock_limit: Optional[float] = None,
        faults=None,
        fused: bool = False,
    ) -> None:
        self.machine = machine
        self.external = np.zeros(external_words, dtype=np.float32)
        self.max_rounds = max_rounds
        #: Superop execution: honour the compiler's fusion plans
        #: (``Program.superops``) by executing whole fused runs per
        #: dispatch, single-image and batched alike.  Silently ignored
        #: under dma-bitflip faults (per-transfer semantics).  Outputs,
        #: ``instructions`` and ``busy_cycles`` stay bit-identical to
        #: per-instruction execution.
        self.fused = fused
        #: Each tile's program decoded once into a flat op table.
        self._decoded: Dict[str, List[_Decoded]] = {}
        #: Per-port (reader, writer) pairs, bound once and shared by
        #: every decoded entry touching the port.
        self._io: Dict[int, tuple] = {}
        self._batch: Optional[BatchState] = None
        #: The batch-1 state superop kernels run on in single-image runs.
        self._image = _ImageState(self)
        #: Watchdog: seconds of host wall-clock a run() may take before
        #: it is killed with a :class:`SimulationTimeout` (None = no
        #: limit; the ``max_rounds`` cycle budget always applies).
        self.wall_clock_limit = wall_clock_limit
        self._clock = _RunClock()
        #: Telemetry handle: explicit injection wins, else the process
        #: global (a null object by default — see repro.telemetry).
        self.telemetry = telemetry if telemetry is not None else (
            get_telemetry()
        )
        self._tel_on = self.telemetry.enabled
        #: DMA bit-flip faults (see :class:`_DmaFlips`).
        self._flips = _DmaFlips(faults, self.telemetry, self._clock)
        #: Optional execution trace: (round, tile_id, instruction text).
        self.trace_enabled = trace
        self.trace_limit = trace_limit
        self.trace: List[Tuple[int, str, str]] = []
        #: Last tracker obstruction per tile: (kind, port, addr, count,
        #: phase) — feeds the deadlock diagnostic and telemetry.
        self._block_reason: Dict[str, Tuple[str, int, int, int, str]] = {}
        # (Re)wire the per-MemTile tracker hooks: enabled engines see
        # arm/block/expire events, disabled engines restore the no-op.
        for mem in machine.mem_tiles:
            mem.trackers.emit = (
                _tracker_emitter(self.telemetry, self._clock, mem.tile_id)
                if self._tel_on else None
            )

    @property
    def rounds(self) -> int:
        """Scheduler rounds of the current (or last) run."""
        return self._clock.rounds

    @property
    def dma_flips(self) -> int:
        """DMA transfers corrupted by dma-bitflip faults so far."""
        return self._flips.count

    # ------------------------------------------------------------------
    # Host interaction
    # ------------------------------------------------------------------
    def inject(self, port: int, addr: int, data: np.ndarray) -> None:
        """Host-side tracker-counted write (used to deliver the loss
        gradient at the network output between the FP and BP phases)."""
        tile = self._tile(port)
        if tile is None:
            raise SimulationError("cannot inject into external memory")
        verdict = tile.trackers.check_write(addr, data.size)
        if verdict is not AccessVerdict.ALLOW:
            raise SimulationError(
                f"injection into tile {port} @ {addr} blocked by tracker"
            )
        tile.write(addr, data, accumulate=False)

    # ------------------------------------------------------------------
    # Ports and tracker blocks
    # ------------------------------------------------------------------
    def _tile(self, port: int) -> Optional[MemTile]:
        if port == EXTERNAL_PORT:
            return None
        return self.machine.mem_tile(port)

    def _note_block(
        self, comp: CompTile, reason: Tuple[str, int, int, int, str]
    ) -> None:
        """Record why ``comp`` is blocked: ``reason`` is the obstructed
        ``(kind, port, addr, count, phase)``."""
        self._block_reason[comp.tile_id] = reason
        if self._tel_on:
            kind, port, addr, count, phase = reason
            self.telemetry.instant(
                f"blocked.{kind}", "engine.block",
                ("engine", f"tile {comp.tile_id}"), comp.cycles,
                port=port, addr_range=[addr, addr + count], phase=phase,
            )

    # ------------------------------------------------------------------
    # Cycle-cost model
    # ------------------------------------------------------------------
    def _conv_cycles(self, out_elems: int, k: int) -> int:
        fma = self.machine.chip.comp_tile.fma_count
        return _SETUP_COARSE + math.ceil(out_elems * k * k / fma)

    def _matmul_cycles(self, macs: int) -> int:
        fma = self.machine.chip.comp_tile.fma_count
        return _SETUP_COARSE + math.ceil(macs / fma)

    def _offload_cycles(self, elems: int) -> int:
        sfu = self.machine.chip.mem_tile.num_sfu
        return _SETUP_OFFLOAD + math.ceil(elems / sfu)

    def _dma_cycles(self, words: int, src_port: int, dst_port: int) -> int:
        chip = self.machine.chip
        if EXTERNAL_PORT in (src_port, dst_port):
            bpc = chip.links.external_memory / 600e6
            hops = 1
        else:
            bpc = chip.links.mem_mem / 600e6
            hops = max(1, self.machine.hops(src_port, dst_port))
        return _SETUP_DMA + math.ceil(4 * words / bpc) * hops

    # ------------------------------------------------------------------
    # Issue-time execution: returns cycle cost, or None when blocked
    # ------------------------------------------------------------------
    def _execute(self, tile: CompTile, instr: Instruction) -> Optional[int]:
        """Issue one instruction the decoder left to issue time: the
        scalar register/branch/halt core, tracker arming that must raise
        when issued, and register-indirect operands, which resolve
        against the tile's registers here.  A data instruction then runs
        the decoded kernel of its resolved form — the same gate and
        kernel an unrolled program's instruction runs."""
        op = instr.opcode
        values = instr.operands
        if instr.group is not InstrGroup.SCALAR:
            # Resolve register-indirect operands (Fig 13-style R-args).
            values = tuple(
                tile.reg(value & REG_OPERAND_MASK)
                if is_reg_operand(value)
                else value
                for value in values
            )
        o = dict(zip(OPERAND_NAMES[op], values))

        # --- scalar control -------------------------------------------
        if op is Opcode.LDRI:
            tile.set_reg(o["rd"], o["value"])
            return 1
        if op is Opcode.MOVR:
            tile.set_reg(o["rd"], tile.reg(o["rs"]))
            return 1
        if op is Opcode.ADDR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) + tile.reg(o["rs2"]))
            return 1
        if op is Opcode.ADDRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) + o["value"])
            return 1
        if op is Opcode.SUBR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) - tile.reg(o["rs2"]))
            return 1
        if op is Opcode.SUBRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) - o["value"])
            return 1
        if op is Opcode.MULR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) * tile.reg(o["rs2"]))
            return 1
        if op in (Opcode.BEQZ, Opcode.BNEZ, Opcode.BGTZ):
            value = tile.reg(o["rs"])
            taken = (
                value == 0 if op is Opcode.BEQZ
                else value != 0 if op is Opcode.BNEZ
                else value > 0
            )
            if taken:
                tile.pc += o["offset"]
            return 1
        if op is Opcode.BRANCH:
            tile.pc += o["offset"]
            return 1
        if op is Opcode.HALT:
            tile.halted = True
            return 1

        # --- data-flow trackers ----------------------------------------
        if op in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
            port = o["target"] if op is Opcode.DMA_MEMTRACK else o["port"]
            target = self._tile(port)
            if target is None:
                raise SimulationError("cannot arm a tracker on external memory")
            target.trackers.arm(
                o["addr"], o["size"], o["num_updates"], o["num_reads"]
            )
            return 1

        # --- data instructions ----------------------------------------
        if self._batch is not None:
            raise SimulationError(
                f"{op.value} resolves its operands per issue on the "
                "single-image path (register-indirect operands) and "
                "cannot run in a batched execution"
            )
        entry = self._decode_data(Instruction(op, values), tile)
        if not self._gate_quads(tile, entry):
            return None
        entry.fn(self._image, *entry.args)
        return entry.cost

    # ------------------------------------------------------------------
    # Decoded op tables
    # ------------------------------------------------------------------
    def make_batch(self, batch: int) -> BatchState:
        """Prepare batched multi-image execution: the next :meth:`run`
        executes every decoded data instruction — and, on a fused
        engine, every superop — across ``batch`` images at once (numpy
        ops vectorised over a leading batch axis), on scratchpad
        mirrors grown on demand.  Returns the
        :class:`BatchState` — write per-image inputs into it before the
        run and read per-image outputs after, then call
        :meth:`end_batch`."""
        if self._flips.rate:
            raise SimulationError(
                "batched execution is incompatible with dma-bitflip "
                "faults: flips target single transfers, not minibatches"
            )
        self._batch = BatchState(self, batch)
        return self._batch

    def end_batch(self) -> None:
        """Drop the batch mirrors; later runs are single-image again."""
        self._batch = None

    def _port_io(self, port: int) -> tuple:
        """The bound ``(reader, writer)`` pair of ``port`` — readers
        take ``(addr, count)``, writers ``(addr, data, accumulate)`` —
        built once per port."""
        io = self._io.get(port)
        if io is None:
            tile = self._tile(port)
            io = self._io[port] = (
                _external_io(self.external) if tile is None
                else (tile.read, tile.write)
            )
        return io

    def _quads(self, accesses) -> tuple:
        """Gate quads ``(trackers, port, addr, count)`` of the tracked
        ports among ``accesses`` (external memory is never gated)."""
        quads = []
        for port, addr, count in accesses:
            tile = self._tile(port)
            if tile is not None:
                quads.append((tile.trackers, port, addr, count))
        return tuple(quads)

    def _decode_program(self, tile: CompTile) -> List[_Decoded]:
        cached = self._decoded.get(tile.tile_id)
        if cached is not None and len(cached) == len(tile.program):
            return cached
        entries = None
        if (
            self.fused
            and not self._flips.rate
            and getattr(tile.program, "superops", ())
        ):
            entries = self._decode_fused(tile)
        if entries is None:
            entries = [
                self._decode_instr(instr, tile)
                for instr in tile.program.instructions
            ]
        self._decoded[tile.tile_id] = entries
        return entries

    def _decode_fused(self, tile: CompTile) -> Optional[List[_Decoded]]:
        """Build the fused op table: one :class:`_Super` per superop at
        its first pc, per-instruction fallback sentinels at the member
        pcs it jumps over (never dispatched; correct if ever reached),
        and the normal full decode everywhere else.  Returns None when a
        superop doesn't validate against this program — the caller falls
        back to the per-instruction table."""
        instrs = tile.program.instructions
        n = len(instrs)
        entries: List[Optional[_Decoded]] = [None] * n
        try:
            for sup in tile.program.superops:
                if not (0 <= sup.start < sup.end <= n):
                    return None
                entries[sup.start] = self._build_super(sup, instrs, tile)
                for pc in range(sup.start + 1, sup.end):
                    entries[pc] = _Decoded(instrs[pc], fallback=True)
        except (SimulationError, KeyError, ZeroDivisionError):
            return None
        for pc in range(n):
            if entries[pc] is None:
                entries[pc] = self._decode_instr(instrs[pc], tile)
        return entries

    def _instr_cost(self, instr: Instruction) -> int:
        """The decoded cycle cost of one fusable data instruction,
        computed from operands alone (no kernel binding) — superop costs
        are pre-summed from these so fused and per-instruction reports
        reconcile exactly."""
        op = instr.opcode
        o = instr.operands
        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            _, src_port, _, dst_port, size, _ = o
            return self._dma_cycles(size, src_port, dst_port)
        if op is Opcode.NDCONV:
            _, _, in_size, _, kernel_size, stride, pad, _, _, _ = o
            h, w = unpack_shape(in_size)
            k, _ = unpack_shape(kernel_size)
            out_h = (h + 2 * pad - k) // stride + 1
            out_w = (w + 2 * pad - k) // stride + 1
            return self._conv_cycles(out_h * out_w, k)
        if op is Opcode.MATMUL:
            rows, cols = unpack_shape(o[5])  # in2_size
            return self._matmul_cycles(rows * cols)
        if op is Opcode.NDACCUM:
            return self._offload_cycles(o[2])  # size
        if op is Opcode.NDACTFN:
            return self._offload_cycles(o[3])  # size
        if op is Opcode.NDSUBSAMP:
            h, w = unpack_shape(o[3])  # in_size
            return self._offload_cycles(h * w)
        raise SimulationError(
            f"superop member {op.value} has no fused cost"
        )

    def _build_super(self, sup, instrs, tile: CompTile) -> "_Super":
        cost = sum(
            self._instr_cost(instrs[pc])
            for pc in range(sup.start, sup.end)
        )
        reads = self._quads(sup.external_reads)
        writes = self._quads(sup.external_writes)
        expire = tuple(
            (self.machine.mem_tile(port).trackers, addr, size)
            for port, addr, size in sup.expire
        )
        p = dict(sup.params)
        kind = sup.kind
        if kind == "load_run":
            kernel, args = _load_run, (
                p["dmas"], self.telemetry if self._tel_on else None, tile,
            )
        elif kind == "conv_block":
            plan = ops.conv_block_plan(p["steps"], p["k"])
            kernel, args = _conv_block, (
                p["in_port"],
                ops.conv_block_extent(plan, p["k"], p["h"] * p["w"]),
                p["h"], p["w"], p["k"], p["stride"], p["pad"],
                p["out_size"], p["n_features"], p["pre_base"],
                p["bias_base"], plan, _CODE_TO_ACT[p["fn_type"]],
                p["out_port"], p["home_port"], p["home_addr"],
            )
        elif kind == "fc_block":
            kernel, args = _fc_block, (
                p["vec_port"], p["mat_port"], p["pre_port"],
                p["home_port"], p["n"], p["rows"], p["vec_addr"],
                p["mat_addr"], p["pre_addr"], p["bias_addr"],
                p["home_addr"], _CODE_TO_ACT[p["fn_type"]],
            )
        elif kind == "pool_run":
            kernel, args = _pool_run, (tuple(
                (
                    port, in_addr, count * h * w, h, w, window, stride,
                    _CODE_TO_SAMP[samp], out_port, out_addr,
                )
                for port, in_addr, count, h, w, window, stride, samp,
                out_port, out_addr in p["groups"]
            ),)
        else:
            raise SimulationError(f"unknown superop kind {kind!r}")
        return _Super(
            kind, sup.start, sup.end, cost, kernel, args, reads, writes,
            expire,
        )

    def _note_fallback(self, instr: Instruction, reason: str) -> None:
        """Count one instruction decode leaves to issue time
        (:meth:`_execute`), keyed by opcode and the reason."""
        if self._tel_on:
            self.telemetry.count(
                "engine.fallback", f"{instr.opcode.value}:{reason}"
            )

    def _decode_instr(self, instr: Instruction, tile: CompTile) -> _Decoded:
        group = instr.group
        if group is InstrGroup.SCALAR:
            # Register/branch/halt: cheap already, and inherently
            # dynamic.  Touches no scratchpad words, so it is safe under
            # batched execution too.
            self._note_fallback(instr, "scalar-control")
            return _Decoded(instr, fallback=True)
        if has_reg_operands(instr):
            # Fig 13-style R-operands resolve at issue time only.
            self._note_fallback(instr, "register-indirect")
            return _Decoded(instr, fallback=True)
        if group is InstrGroup.TRACK:
            addr, port, size, num_updates, num_reads = instr.operands[:5]
            if instr.opcode is Opcode.DMA_MEMTRACK:
                port = instr.operands[5]  # target
            if port == EXTERNAL_PORT:
                # Arming external memory raises at execution time.
                self._note_fallback(instr, "external-port")
                return _Decoded(instr, fallback=True)
            try:
                trackers = self.machine.mem_tile(port).trackers
            except SimulationError:
                # Out-of-mesh port: raises when issued, in _execute.
                self._note_fallback(instr, "out-of-mesh-port")
                return _Decoded(instr, fallback=True)
            return _Decoded(
                instr, fn=_arm, fn_batch=_arm,
                args=(trackers, addr, size, num_updates, num_reads), cost=1,
            )
        try:
            return self._decode_data(instr, tile)
        except (SimulationError, KeyError, ZeroDivisionError) as exc:
            # Operands that cannot execute — shape mismatches and
            # out-of-mesh ports (SimulationError), bad activation or
            # sampling codes (KeyError), a zero WUPDATE lr denominator —
            # raise when a tile issues the instruction, so a program
            # that never reaches it still runs.  Anything else is a
            # genuine engine bug and surfaces here, at decode.
            return _Decoded(
                instr, fn=_raise, fn_batch=_raise,
                args=(type(exc), exc.args),
            )

    def _decode_data(self, instr: Instruction, tile: CompTile) -> _Decoded:
        """Decode one data instruction into a :class:`_Decoded` entry:
        its gate quads, cost, and the args tuple of its opcode's kernel
        pair, with all operand parsing, access analysis and cost
        arithmetic hoisted to decode time."""
        op = instr.opcode
        o = instr.operands
        raw_reads, raw_writes = instruction_accesses(instr)
        reads = self._quads(raw_reads)
        writes = self._quads(raw_writes)
        io = self._port_io

        if op is Opcode.NDCONV:
            (in_addr, in_port, in_size, kernel_addr, kernel_size, stride,
             pad, out_addr, out_port, is_accum) = o
            h, w = unpack_shape(in_size)
            k, _ = unpack_shape(kernel_size)
            out_h = (h + 2 * pad - k) // stride + 1
            out_w = (w + 2 * pad - k) // stride + 1
            fn, fn_batch = _conv, _conv_batch
            args = (
                io(in_port)[0], io(out_port)[1], in_port, out_port,
                in_addr, kernel_addr, out_addr, h, w, k, stride, pad,
                bool(is_accum),
            )
            cost = self._conv_cycles(out_h * out_w, k)
        elif op is Opcode.MATMUL:
            (in1_addr, in1_port, in1_size, in2_addr, in2_port, in2_size,
             out_addr, out_port, is_accum) = o
            rows, cols = unpack_shape(in2_size)
            _, n = unpack_shape(in1_size)
            if n != cols:
                raise SimulationError(
                    f"MATMUL shape mismatch: vector {n} vs matrix "
                    f"{rows}x{cols}"
                )
            fn, fn_batch = _matmul, _matmul_batch
            args = (
                io(in1_port)[0], io(in2_port)[0], io(out_port)[1],
                in1_port, in2_port, out_port, in1_addr, in2_addr,
                out_addr, n, rows, cols, bool(is_accum),
            )
            cost = self._matmul_cycles(rows * cols)
        elif op is Opcode.NDACTFN or op is Opcode.NDACTBP:
            # NDACTFN reads its input at ``addr``; NDACTBP reads the raw
            # error there and the activated outputs right after it (a
            # companion operand would not fit Fig 8).
            fn_type, addr, port, size, out_addr, out_port = o
            fn_act = _CODE_TO_ACT[fn_type]
            rd, wr = io(port)[0], io(out_port)[1]
            if op is Opcode.NDACTFN:
                fn, fn_batch = _actfn, _actfn_batch
                args = (rd, wr, port, out_port, addr, out_addr, size,
                        fn_act)
            else:
                fn, fn_batch = _actbp, _actbp_batch
                args = (rd, wr, port, out_port, addr, addr + size,
                        out_addr, size, fn_act)
            cost = self._offload_cycles(size)
        elif op is Opcode.NDSUBSAMP:
            (samp_type, in_addr, port, in_size, window, stride, out_addr,
             out_port) = o
            h, w = unpack_shape(in_size)
            fn, fn_batch = _subsamp, _subsamp_batch
            args = (
                io(port)[0], io(out_port)[1], port, out_port, in_addr,
                out_addr, h, w, window, stride, _CODE_TO_SAMP[samp_type],
            )
            cost = self._offload_cycles(h * w)
        elif op is Opcode.NDUPSAMP:
            (mode, in_addr, port, in_size, window, stride, out_addr,
             out_port) = o
            h, w = unpack_shape(in_size)  # error extent (small side)
            kernels = _UPSAMP_KERNELS.get(mode)
            if kernels is None:
                raise SimulationError(f"unknown NDUPSAMP mode {mode}")
            fn, fn_batch = kernels
            if mode == UPSAMP_ZERO_INSERT:
                out_h, out_w = (h - 1) * stride + 1, (w - 1) * stride + 1
            else:
                out_h, out_w = h * stride, w * stride
            args = (
                io(port)[0], io(out_port)[1], port, out_port, in_addr,
                out_addr, h, w, window, stride, out_h, out_w,
            )
            cost = self._offload_cycles(out_h * out_w)
        elif op is Opcode.NDACCUM:
            src_addr, port, size, dst_addr = o
            rd, wr = io(port)
            fn, fn_batch = _accum, _accum_batch
            args = (rd, wr, port, src_addr, dst_addr, size)
            cost = self._offload_cycles(size)
        elif op is Opcode.VECMUL:
            in1_addr, in2_addr, port, size, out_addr = o
            rd, wr = io(port)
            fn, fn_batch = _vecmul, _vecmul_batch
            args = (rd, wr, port, in1_addr, in2_addr, out_addr, size)
            cost = self._offload_cycles(size)
        elif op is Opcode.WUPDATE:
            weight_addr, grad_addr, port, size, lr_num, lr_denom = o
            rd, wr = io(port)
            fn, fn_batch = _wupdate, _wupdate_batch
            args = (rd, wr, port, weight_addr, grad_addr, size,
                    lr_num / lr_denom)
            cost = self._offload_cycles(size)
        elif op in (Opcode.DMALOAD, Opcode.DMASTORE, Opcode.PREFETCH):
            if op is Opcode.PREFETCH:
                src_addr, dst_addr, dst_port, size = o
                src_port, accum = EXTERNAL_PORT, False
            else:
                src_addr, src_port, dst_addr, dst_port, size, is_accum = o
                accum = bool(is_accum)
            fn, fn_batch = _dma, _dma_batch
            args = (
                io(src_port)[0], io(dst_port)[1], src_port, src_addr,
                dst_port, dst_addr, size, accum,
                self._flips if self._flips.rate else None,
                self.telemetry if self._tel_on else None, tile,
            )
            cost = self._dma_cycles(size, src_port, dst_port)
        elif op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            fn, fn_batch, args, cost = _passbuff, _passbuff, (), 2
        else:
            raise SimulationError(f"engine cannot decode {op.value}")
        return _Decoded(
            instr, fn=fn, fn_batch=fn_batch, args=args, reads=reads,
            writes=writes, cost=cost,
        )

    def _gate_quads(self, comp: CompTile, entry) -> bool:
        """Check an entry's pre-bound ``(trackers, port, addr, count)``
        quads; consume tracker counts only if ALL are allowed.  Peek
        every access first (a blocked companion must not consume
        counts), then consume.  A refusal records *why* ``comp`` is
        blocked (the obstructing port, address range and tracker phase)
        for the deadlock diagnostic and, when enabled, telemetry.

        A blocked verdict is memoized on the entry with the versions of
        the tracker files it touches.  While none of them has changed
        state, the verdict is replayed — the same block count on the
        same file, the same diagnostic and telemetry — without polling
        the trackers again."""
        memo = entry.memo
        if memo is not None:
            files, versions, trackers, reason = memo
            if versions == [f.version for f in files]:
                if reason[0] == "read":
                    trackers.blocked_reads += 1
                else:
                    trackers.blocked_writes += 1
                self._note_block(comp, reason)
                return False
        reads, writes = entry.reads, entry.writes
        for trackers, port, addr, count in reads:
            if trackers.read_blocked(addr, count):
                return self._blocked(
                    comp, entry, trackers,
                    ("read", port, addr, count, _UPDATING),
                )
        for trackers, port, addr, count in writes:
            if trackers.write_blocked(addr, count):
                return self._blocked(
                    comp, entry, trackers,
                    ("write", port, addr, count, _READABLE),
                )
        for trackers, _port, addr, count in reads:
            verdict = trackers.check_read(addr, count)
            assert verdict is AccessVerdict.ALLOW
        for trackers, _port, addr, count in writes:
            verdict = trackers.check_write(addr, count)
            assert verdict is AccessVerdict.ALLOW
        return True

    def _blocked(self, comp: CompTile, entry, trackers, reason) -> bool:
        """Note and memoize a blocked gate verdict; returns False."""
        files = (
            _tracker_files(entry) if entry.memo is None else entry.memo[0]
        )
        entry.memo = (files, [f.version for f in files], trackers, reason)
        self._note_block(comp, reason)
        return False

    # ------------------------------------------------------------------
    def run(
        self,
        raise_on_deadlock: bool = True,
        only_tiles: Optional[set] = None,
        exclude_tiles: Optional[set] = None,
    ) -> RunReport:
        """Run all loaded programs round-robin until every tile halts.

        With ``raise_on_deadlock=False`` the engine instead *returns*
        when no tile can make progress — the training flow uses this to
        pause at the point where backpropagation waits for the host to
        inject the loss gradient (the paper computes the output error in
        the final FP tiles; see Sec 3.2.3).

        ``only_tiles`` / ``exclude_tiles`` select which CompHeavy tiles
        participate (the minibatch flow runs the per-image programs and
        the weight-update programs in separate phases).
        """
        tiles = [
            t for t in self.machine.comp_tiles.values()
            if (only_tiles is None or t.tile_id in only_tiles)
            and (exclude_tiles is None or t.tile_id not in exclude_tiles)
        ]
        if not tiles:
            raise SimulationError("no programs loaded (or all filtered)")
        clock = self._clock
        clock.rounds = 0
        tel_on = self._tel_on
        deadline = (
            time.monotonic() + self.wall_clock_limit
            if self.wall_clock_limit is not None else None
        )
        batch = self._batch
        state = self._image if batch is None else batch
        gate = self._gate_quads
        # One flat op table per tile, indexed by pc in lockstep with the
        # program (same list semantics).
        work: List[Tuple[CompTile, List[_Decoded]]] = [
            (t, self._decode_program(t)) for t in tiles
        ]
        while True:
            clock.rounds += 1
            if clock.rounds > self.max_rounds:
                raise SimulationTimeout(
                    f"engine exceeded {self.max_rounds} rounds; likely "
                    "livelock (watchdog cycle budget)\n"
                    + self._describe_blocked(tiles),
                    snapshot=self._snapshot(tiles),
                )
            if deadline is not None and time.monotonic() > deadline:
                raise SimulationTimeout(
                    f"engine watchdog: run exceeded wall-clock limit of "
                    f"{self.wall_clock_limit:g}s after {clock.rounds} "
                    "rounds\n" + self._describe_blocked(tiles),
                    snapshot=self._snapshot(tiles),
                )
            progress = False
            live = False
            for tile, entries in work:
                if tile.halted:
                    continue
                live = True
                pc = tile.pc
                entry = entries[pc]
                if entry.fallback:
                    tile.pc = pc + 1  # branches are relative to it
                    cost = self._execute(tile, entry.instr)
                    if cost is None:
                        tile.pc = pc
                elif gate(tile, entry):
                    # A superop also force-expires its internal tracker
                    # handshakes to their exact per-instruction end
                    # state and jumps over its members.
                    if batch is None:
                        entry.fn(state, *entry.args)
                    else:
                        entry.fn_batch(state, *entry.args)
                    for trackers, addr, size in entry.expire:
                        trackers.expire(addr, size)
                    tile.pc = pc + entry.count
                    cost = entry.cost
                else:
                    cost = None
                if cost is None:  # retry the blocked instruction
                    tile.blocked = True
                    tile.cycles += 1  # stall cycle
                    tile.stalled_cycles += 1
                    tile.blocked_retries += 1
                    continue
                tile.blocked = False
                tile.cycles += cost
                tile.instructions_executed += entry.count
                progress = True
                if tel_on:
                    self._observe_instr(tile, entry, cost)
                tile.blocked_retries = 0
                if self.trace_enabled and len(self.trace) < self.trace_limit:
                    self.trace.append((
                        clock.rounds, tile.tile_id,
                        entry.label if entry.is_super else str(entry.instr),
                    ))
            if not live:
                break
            if not progress:
                if not raise_on_deadlock:
                    break
                if tel_on:
                    self._flush_counters(tiles)
                raise SimulationError(
                    "deadlock: all live tiles blocked:\n"
                    + self._describe_blocked(tiles)
                )
        if tel_on:
            self._flush_counters(tiles)
        return RunReport(
            cycles=self.machine.total_cycles,
            instructions=self.machine.total_instructions,
            rounds=clock.rounds,
            blocked_reads=sum(
                t.trackers.blocked_reads for t in self.machine.mem_tiles
            ),
            blocked_writes=sum(
                t.trackers.blocked_writes for t in self.machine.mem_tiles
            ),
            busy_cycles=self.machine.total_busy_cycles,
        )

    def _observe_instr(self, tile: CompTile, entry, cost: int) -> None:
        """Telemetry of one entry that just executed: its span, the
        per-class cycle cost distribution, DMA cycles, and the
        tracker-block duration (each blocked retry is one stall cycle,
        so the retry count at the unblocking instruction is the block
        duration)."""
        tel = self.telemetry
        start_cycle = tile.cycles - cost
        lane = ("engine", f"tile {tile.tile_id}")
        if entry.is_super:
            tel.span(
                entry.label, "engine.instr", lane, start_cycle, cost,
                round=self.rounds, instructions=entry.count,
                blocked_retries=tile.blocked_retries,
            )
            tel.observe(
                "engine.instr_cycles", f"superop.{entry.kind}", cost
            )
            dma = entry.kind == "load_run"
        else:
            name = entry.instr.opcode.value
            tel.span(
                name, "engine.instr", lane, start_cycle, cost,
                round=self.rounds, blocked_retries=tile.blocked_retries,
            )
            tel.observe("engine.instr_cycles", name, cost)
            dma = entry.instr.opcode in _DMA_OPCODES
        if dma:
            tel.count(f"tile/{tile.tile_id}", "dma_cycles", cost)
        if tile.blocked_retries:
            tel.observe(
                "engine.block_cycles", "tracker",
                float(tile.blocked_retries),
            )

    # ------------------------------------------------------------------
    # Diagnostics and telemetry flushing
    # ------------------------------------------------------------------
    def _snapshot(self, tiles: List[CompTile]) -> List[Dict[str, object]]:
        """Per-tile tracker state for :class:`SimulationTimeout`, sorted
        by tile id for deterministic diagnostics."""
        rows: List[Dict[str, object]] = []
        for tile in sorted(tiles, key=lambda t: t.tile_id):
            reason = self._block_reason.get(tile.tile_id)
            rows.append({
                "tile": tile.tile_id,
                "pc": tile.pc,
                "cycles": tile.cycles,
                "instructions": tile.instructions_executed,
                "halted": tile.halted,
                "blocked": tile.blocked,
                "reason": (
                    {
                        "kind": reason[0],
                        "port": reason[1],
                        "addr": reason[2],
                        "count": reason[3],
                        "phase": reason[4],
                    }
                    if reason is not None and tile.blocked else None
                ),
            })
        return rows

    def _describe_blocked(self, tiles: List[CompTile]) -> str:
        """Per-tile deadlock detail: the tracker phase and address range
        each blocked tile is waiting on.

        Sorted by tile id so identical machine states produce
        byte-identical diagnostics regardless of program-load or
        scheduling order."""
        lines = []
        for tile in sorted(tiles, key=lambda t: t.tile_id):
            if tile.halted or not tile.blocked:
                continue
            reason = self._block_reason.get(tile.tile_id)
            if reason is None:
                lines.append(f"  {tile.tile_id}: blocked (reason unknown)")
                continue
            kind, port, addr, count, phase = reason
            lines.append(
                f"  {tile.tile_id}: {kind} of mem tile {port} "
                f"[{addr}, {addr + count}) blocked by tracker in "
                f"{phase} phase after {tile.blocked_retries} retries"
            )
        return "\n".join(lines)

    def _flush_counters(self, tiles: List[CompTile]) -> None:
        """Snapshot per-tile cycle counters into the telemetry registry.

        Uses ``record`` (not ``add``) so repeated runs on a persistent
        machine — the streaming ForwardRunner, which restarts the
        counters per image — report the latest run."""
        tel = self.telemetry
        for tile in tiles:
            group = f"tile/{tile.tile_id}"
            tel.record(group, "busy_cycles", tile.busy_cycles)
            tel.record(group, "stalled_cycles", tile.stalled_cycles)
            tel.record(group, "total_cycles", tile.cycles)
            tel.record(group, "instructions", tile.instructions_executed)
        for mem in self.machine.mem_tiles:
            group = f"mem/{mem.tile_id}"
            tel.record(group, "blocked_reads", mem.trackers.blocked_reads)
            tel.record(group, "blocked_writes", mem.trackers.blocked_writes)
        if self.dma_flips:
            tel.record("engine", "dma_flips", self.dma_flips)
        tel.record("engine", "rounds", self.rounds)
        tel.record("engine", "total_cycles", self.machine.total_cycles)
        tel.record(
            "engine", "total_instructions", self.machine.total_instructions
        )
