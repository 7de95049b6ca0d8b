"""Machine state for the functional engine: tiles and scratchpads.

The engine models one ScaleDeep chip as a grid of MemHeavy tiles (each a
word-addressed float32 scratchpad with a tracker file) and CompHeavy
tiles (each a scalar register file plus program counter).  Addresses in
engine programs are *word* offsets into a tile's scratchpad; sizes pack
2-D extents as ``(height << 16) | width`` so the published instruction
signatures of Fig 8 carry shapes in single operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.chip import ChipConfig
from repro.errors import SimulationError
from repro.isa.instructions import Instruction, NUM_REGISTERS, Opcode
from repro.isa.program import Program
from repro.sim.tracker import TrackerFile

#: Packing of 2-D extents into one operand.
SHAPE_SHIFT = 16
SHAPE_MASK = (1 << SHAPE_SHIFT) - 1

#: Data-instruction operands with this bit set are register references:
#: the engine substitutes the scalar register's value at issue time —
#: how the paper's Fig 13 listings pass R-operands to NDCONV etc.
REG_OPERAND_FLAG = 1 << 30
REG_OPERAND_MASK = REG_OPERAND_FLAG - 1


def reg_operand(index: int) -> int:
    """Encode scalar register ``index`` as a data-instruction operand."""
    if not 0 <= index < 64:
        raise SimulationError(f"register index {index} out of range")
    return REG_OPERAND_FLAG | index


def is_reg_operand(value: int) -> bool:
    return bool(value & REG_OPERAND_FLAG)


def has_reg_operands(instr: Instruction) -> bool:
    """Whether any operand of ``instr`` is a register reference (the
    bit test of :func:`is_reg_operand`, so negative immediates count)."""
    for value in instr.operands:
        if value & REG_OPERAND_FLAG:
            return True
    return False


def pack_shape(height: int, width: int) -> int:
    """Encode a (height, width) extent into one immediate."""
    if not (0 < height <= SHAPE_MASK and 0 < width <= SHAPE_MASK):
        raise SimulationError(f"extent {height}x{width} does not pack")
    return (height << SHAPE_SHIFT) | width


def unpack_shape(packed: int) -> Tuple[int, int]:
    """Decode a packed (height, width) extent."""
    return packed >> SHAPE_SHIFT, packed & SHAPE_MASK


@dataclass
class MemTile:
    """A MemHeavy tile: scratchpad words, tracker file, DMA statistics."""

    tile_id: int
    words: np.ndarray
    trackers: TrackerFile
    sfu_count: int

    @classmethod
    def build(
        cls, tile_id: int, capacity_bytes: int, sfu_count: int,
        tracker_capacity: int = 32,
    ) -> "MemTile":
        return cls(
            tile_id=tile_id,
            words=np.zeros(capacity_bytes // 4, dtype=np.float32),
            trackers=TrackerFile(tracker_capacity),
            sfu_count=sfu_count,
        )

    @property
    def capacity_words(self) -> int:
        return len(self.words)

    def read(self, addr: int, count: int) -> np.ndarray:
        if addr < 0 or addr + count > len(self.words):
            raise SimulationError(
                f"tile {self.tile_id}: read [{addr}, {addr + count}) out of "
                f"bounds ({len(self.words)} words)"
            )
        return self.words[addr : addr + count]

    def write(self, addr: int, data: np.ndarray, accumulate: bool) -> None:
        count = data.size
        if addr < 0 or addr + count > len(self.words):
            raise SimulationError(
                f"tile {self.tile_id}: write [{addr}, {addr + count}) out "
                f"of bounds ({len(self.words)} words)"
            )
        flat = data.reshape(-1).astype(np.float32)
        if accumulate:
            self.words[addr : addr + count] += flat
        else:
            self.words[addr : addr + count] = flat


@dataclass
class CompTile:
    """A CompHeavy tile: registers, program, program counter, clock."""

    tile_id: str
    program: Program
    registers: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_REGISTERS, dtype=np.int64)
    )
    pc: int = 0
    cycles: int = 0
    halted: bool = False
    blocked: bool = False
    instructions_executed: int = 0
    stalled_cycles: int = 0  # cycles spent retrying blocked instructions
    blocked_retries: int = 0  # retries of the *current* instruction

    @property
    def busy_cycles(self) -> int:
        """Cycles spent executing (total minus tracker-blocked stalls)."""
        return self.cycles - self.stalled_cycles

    def reg(self, index: int) -> int:
        return int(self.registers[index])

    def set_reg(self, index: int, value: int) -> None:
        self.registers[index] = value


class Machine:
    """One-chip engine state: a mesh of MemTiles plus CompTiles.

    MemHeavy tiles form a ``(cols + 1) x rows`` mesh (the fencepost
    arrangement of Sec 3.2.1); ``mem_tile_id(col, row)`` flattens the
    coordinates.  Engine DMA may move data between any two tiles; timing
    charges Manhattan-distance hops over the point-to-point links.
    """

    def __init__(self, chip: ChipConfig, mem_columns: int, rows: int) -> None:
        if mem_columns < 1 or rows < 1:
            raise SimulationError("machine mesh must be non-empty")
        self.chip = chip
        self.mem_columns = mem_columns
        self.rows = rows
        self.mem_tiles: List[MemTile] = [
            MemTile.build(
                i, chip.mem_tile.capacity_bytes, chip.mem_tile.num_sfu,
                chip.mem_tile.tracker_count,
            )
            for i in range(mem_columns * rows)
        ]
        self.comp_tiles: Dict[str, CompTile] = {}

    # ------------------------------------------------------------------
    def mem_tile_id(self, col: int, row: int) -> int:
        if not (0 <= col < self.mem_columns and 0 <= row < self.rows):
            raise SimulationError(
                f"mem tile ({col}, {row}) outside "
                f"{self.mem_columns}x{self.rows} mesh"
            )
        return col * self.rows + row

    def mem_tile(self, tile_id: int) -> MemTile:
        try:
            return self.mem_tiles[tile_id]
        except IndexError:
            raise SimulationError(f"no mem tile {tile_id}") from None

    def hops(self, src_tile: int, dst_tile: int) -> int:
        """Manhattan distance between two mem tiles on the mesh."""
        sc, sr = divmod(src_tile, self.rows)
        dc, dr = divmod(dst_tile, self.rows)
        return abs(sc - dc) + abs(sr - dr)

    def reset_programs(self) -> None:
        """Rewind every CompHeavy tile for another run of its program
        (weights and scratchpad contents persist — this is how the SGD
        loop iterates images on the same machine)."""
        for tile in self.comp_tiles.values():
            tile.pc = 0
            tile.halted = False
            tile.blocked = False
            tile.blocked_retries = 0

    def reset_counters(self) -> None:
        """Zero the run statistics a :class:`~repro.sim.engine.RunReport`
        reads — tile clocks, instruction and stall counts, tracker block
        counts — so the next run reports on its own (the streaming
        ForwardRunner calls this per image)."""
        for tile in self.comp_tiles.values():
            tile.cycles = 0
            tile.instructions_executed = 0
            tile.stalled_cycles = 0
        for mem in self.mem_tiles:
            mem.trackers.blocked_reads = 0
            mem.trackers.blocked_writes = 0

    def load_program(self, program: Program) -> CompTile:
        program.validate()
        if program.tile in self.comp_tiles:
            raise SimulationError(
                f"comp tile {program.tile!r} already has a program"
            )
        tile = CompTile(tile_id=program.tile, program=program)
        self.comp_tiles[program.tile] = tile
        return tile

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Makespan estimate: the slowest tile's cycle count."""
        if not self.comp_tiles:
            return 0
        return max(t.cycles for t in self.comp_tiles.values())

    @property
    def total_instructions(self) -> int:
        return sum(
            t.instructions_executed for t in self.comp_tiles.values()
        )

    @property
    def total_busy_cycles(self) -> int:
        """Sum of per-tile execution cycles, excluding tracker stalls.

        Unlike the makespan (``total_cycles``), this is invariant under
        superop fusion: fused execution compresses *stall* cycles but
        charges every covered instruction its decoded cost."""
        return sum(t.busy_cycles for t in self.comp_tiles.values())


#: (port, addr, word_count) — one gated access.
Access = Tuple[int, int, int]


def _conv_out_extent_words(extent: int, kernel: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - kernel) // stride + 1


# Per-opcode access derivations over the raw operand tuple, unpacked by
# index in OPERAND_NAMES order (no per-call operand dict).
def _ndconv_accesses(o):
    in_addr, in_port, in_size, kernel_addr, kernel_size, stride, pad, \
        out_addr, out_port, _ = o
    h, w = unpack_shape(in_size)
    k, _ = unpack_shape(kernel_size)
    out_h = _conv_out_extent_words(h, k, stride, pad)
    out_w = _conv_out_extent_words(w, k, stride, pad)
    return (
        [(in_port, in_addr, h * w), (in_port, kernel_addr, k * k)],
        [(out_port, out_addr, out_h * out_w)],
    )


def _matmul_accesses(o):
    in1_addr, in1_port, in1_size, in2_addr, in2_port, in2_size, \
        out_addr, out_port, _ = o
    rows, cols = unpack_shape(in2_size)
    _, n = unpack_shape(in1_size)
    return (
        [(in1_port, in1_addr, n), (in2_port, in2_addr, rows * cols)],
        [(out_port, out_addr, rows)],
    )


def _actfn_accesses(o):
    _, in_addr, port, size, out_addr, out_port = o
    return [(port, in_addr, size)], [(out_port, out_addr, size)]


def _actbp_accesses(o):
    _, err_addr, port, size, out_addr, out_port = o
    return (
        [(port, err_addr, size), (port, err_addr + size, size)],
        [(out_port, out_addr, size)],
    )


def _subsamp_accesses(o):
    _, in_addr, port, in_size, window, stride, out_addr, out_port = o
    h, w = unpack_shape(in_size)
    out_h = (h - window) // stride + 1
    out_w = (w - window) // stride + 1
    return [(port, in_addr, h * w)], [(out_port, out_addr, out_h * out_w)]


def _upsamp_accesses(o):
    samp_type, in_addr, port, in_size, _, stride, out_addr, out_port = o
    h, w = unpack_shape(in_size)
    reads = [(port, in_addr, h * w)]
    if samp_type == 2:  # zero-insert dilation
        out = ((h - 1) * stride + 1) * ((w - 1) * stride + 1)
    else:
        out = h * stride * w * stride
        if samp_type == 0:  # max routing reads the original
            reads.append((port, in_addr + h * w, out))
    return reads, [(out_port, out_addr, out)]


def _accum_accesses(o):
    src_addr, port, size, dst_addr = o
    return [(port, src_addr, size)], [(port, dst_addr, size)]


def _vecmul_accesses(o):
    in1_addr, in2_addr, port, size, out_addr = o
    return (
        [(port, in1_addr, size), (port, in2_addr, size)],
        [(port, out_addr, size)],
    )


def _wupdate_accesses(o):
    weight_addr, grad_addr, port, size, _, _ = o
    return [(port, grad_addr, size)], [(port, weight_addr, size)]


def _dma_accesses(o):
    src_addr, src_port, dst_addr, dst_port, size, _ = o
    return [(src_port, src_addr, size)], [(dst_port, dst_addr, size)]


def _prefetch_accesses(o):
    _, dst_addr, dst_port, size = o
    return [], [(dst_port, dst_addr, size)]


_ACCESSES = {
    Opcode.NDCONV: _ndconv_accesses,
    Opcode.MATMUL: _matmul_accesses,
    Opcode.NDACTFN: _actfn_accesses,
    Opcode.NDACTBP: _actbp_accesses,
    Opcode.NDSUBSAMP: _subsamp_accesses,
    Opcode.NDUPSAMP: _upsamp_accesses,
    Opcode.NDACCUM: _accum_accesses,
    Opcode.VECMUL: _vecmul_accesses,
    Opcode.WUPDATE: _wupdate_accesses,
    Opcode.DMALOAD: _dma_accesses,
    Opcode.DMASTORE: _dma_accesses,
    Opcode.PREFETCH: _prefetch_accesses,
}


def instruction_accesses(
    instr: Instruction,
) -> Tuple[List[Access], List[Access]]:
    """The (reads, writes) a data instruction performs, as the engine
    gates them.  Scalar/control/track instructions access nothing.

    Register-indirect operands cannot be resolved statically: programs
    using them (hand-written looped templates) bypass the calibration
    pass, which is why the production code generator unrolls loops —
    the static analysis then sees every address.  The engine gates such
    an instruction on its register-resolved form, at issue.
    """
    op = instr.opcode
    if has_reg_operands(instr):
        raise SimulationError(
            f"{op.value} uses register-indirect operands; accesses are "
            "only known at execution time"
        )
    derive = _ACCESSES.get(op)
    if derive is None:
        return [], []
    return derive(instr.operands)
