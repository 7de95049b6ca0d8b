"""Tests for the static program-set verifier."""

import numpy as np
import pytest

from repro.compiler.codegen import compile_forward
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.verifier import (
    Issue,
    MachineShape,
    assert_verified,
    verify_programs,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_cnn
from repro.errors import ProgramError
from repro.functional import ReferenceModel
from repro.isa import Opcode, Program, make


def shape_for(compiled):
    return MachineShape(
        mem_tiles=compiled.partition.mem_columns * compiled.rows,
        words_per_tile=compiled.chip.mem_tile.capacity_bytes // 4,
        trackers_per_tile=compiled.chip.mem_tile.tracker_count,
    )


def preloads_and_input(compiled):
    """(port, addr, words) for preloads plus the input home blocks."""
    rows = compiled.rows
    regions = [
        (pre.col * rows + pre.row, pre.addr, pre.data.size)
        for pre in compiled.preloads
    ]
    for home in compiled.partition.blocks_of(
        compiled.network.input.name
    ):
        regions.append((
            home.row,  # column 0
            home.address,
            home.feature_count * home.feature_words,
        ))
    return regions


class TestCompiledSetsVerify:
    def test_forward_compiler_output_verifies(self):
        net = tiny_cnn(num_classes=4, in_size=8)
        model = ReferenceModel(net, seed=0)
        compiled = compile_forward(net, model, rows=2)
        issues = verify_programs(
            compiled.programs, shape_for(compiled),
            preloaded=preloads_and_input(compiled),
        )
        assert issues == []

    def test_dag_compiler_output_verifies(self):
        b = NetworkBuilder("branchy")
        b.input(3, 8)
        trunk = b.conv(4, kernel=3, pad=1)
        left = b.conv(2, kernel=1, inputs=[trunk])
        right = b.conv(2, kernel=3, pad=1, inputs=[trunk])
        b.concat([left, right])
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        model = ReferenceModel(net, seed=0)
        compiled = compile_dag_forward(net, model, rows=2)
        issues = verify_programs(
            compiled.programs, shape_for(compiled),
            preloaded=preloads_and_input(compiled),
        )
        assert issues == []

    def test_training_compiler_output_verifies(self):
        b = NetworkBuilder("trainable")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1, name="conv1")
        b.pool(2, mode=PoolMode.AVG, name="pool1")
        b.fc(3, activation=Activation.SOFTMAX, name="fc")
        net = b.build()
        model = ReferenceModel(net, seed=0)
        compiled = compile_training(net, model, rows=2)
        fwd = compiled.forward
        issues = verify_programs(
            fwd.programs, shape_for(fwd),
            preloaded=preloads_and_input(fwd),
            host_writes=[(
                compiled.err_port, compiled.err_addr, compiled.err_size
            )],
        )
        assert issues == []


class TestFindings:
    SHAPE = MachineShape(mem_tiles=4, words_per_tile=64,
                         trackers_per_tile=2)

    def _prog(self, *instrs):
        prog = Program(tile="t")
        for instr in instrs:
            prog.append(instr)
        prog.append(make(Opcode.HALT))
        return prog

    def test_out_of_bounds_write(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=60,
            dst_port=1, size=8, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE,
                                 preloaded=[(0, 0, 8)])
        assert any("exceeds" in str(i) for i in issues)

    def test_nonexistent_port(self):
        prog = self._prog(make(
            Opcode.NDACCUM, src_addr=0, port=9, size=4, dst_addr=8,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert any("does not exist" in str(i) for i in issues)

    def test_read_of_never_written_memory(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert any("never-written" in str(i) for i in issues)
        # A preload covering the source silences it.
        assert verify_programs(
            [prog], self.SHAPE, preloaded=[(0, 0, 4)]
        ) == []

    def test_tracker_file_overflow(self):
        trackers = [
            make(Opcode.MEMTRACK, addr=8 * i, port=0, size=4,
                 num_updates=1, num_reads=1)
            for i in range(3)
        ]
        prog = self._prog(*trackers)
        issues = verify_programs([prog], self.SHAPE)
        assert any("tracker file" in str(i) for i in issues)

    def test_assert_verified_raises(self):
        prog = self._prog(make(
            Opcode.NDACCUM, src_addr=0, port=9, size=4, dst_addr=8,
        ))
        with pytest.raises(ProgramError, match="verification failed"):
            assert_verified([prog], self.SHAPE)

    def test_external_memory_is_unbounded(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=10**6, src_port=65535, dst_addr=0,
            dst_port=0, size=4, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert issues == []

    def test_issue_str(self):
        issue = Issue("tile", 3, "boom")
        assert str(issue) == "tile@3: boom"


# ---------------------------------------------------------------------------
# Differential test: merged written intervals against per-word sets
# ---------------------------------------------------------------------------
def _oracle_unwritten_reads(programs, preloaded, host_writes):
    """The word-set coverage check that the interval version replaces:
    every written word in a set, every read tested word by word."""
    from repro.sim.engine import EXTERNAL_PORT
    from repro.sim.machine import instruction_accesses

    reads, written = [], {}
    for port, addr, count in list(preloaded) + list(host_writes):
        written.setdefault(port, set()).update(range(addr, addr + count))
    for program in programs:
        for pc, instr in enumerate(program):
            r, w = instruction_accesses(instr)
            reads += [(program.tile, pc, port, addr, count)
                      for port, addr, count in r]
            for port, addr, count in w:
                if port != EXTERNAL_PORT:
                    written.setdefault(port, set()).update(
                        range(addr, addr + count)
                    )
    issues = []
    for tile, pc, port, addr, count in reads:
        if port == EXTERNAL_PORT:
            continue
        covered = written.get(port, set())
        missing = [w for w in range(addr, addr + count) if w not in covered]
        if missing:
            issues.append(Issue(
                tile, pc,
                f"reads {len(missing)} never-written word(s) of tile "
                f"{port} starting at {missing[0]}",
            ))
    return issues


def _random_region(rng, ports, sizes=(0, 1, 2, 3, 5, 8, 13)):
    return (
        ports[int(rng.integers(len(ports)))],
        int(rng.integers(0, 48)),
        int(rng.choice(sizes)),
    )


class TestCoverageMatchesWordSets:
    SHAPE = MachineShape(mem_tiles=3, words_per_tile=64,
                         trackers_per_tile=2)
    PORTS = [0, 1, 2, 65535]  # 65535 is external memory

    def _random_case(self, rng):
        programs = [Program(tile=f"t{i}") for i in range(2)]
        for _ in range(int(rng.integers(1, 30))):
            prog = programs[int(rng.integers(len(programs)))]
            src_port, src_addr, size = _random_region(rng, self.PORTS)
            dst_port, dst_addr, _ = _random_region(rng, self.PORTS)
            if rng.random() < 0.6:
                prog.append(make(
                    Opcode.DMALOAD, src_addr=src_addr, src_port=src_port,
                    dst_addr=dst_addr, dst_port=dst_port, size=size,
                    is_accum=0,
                ))
            elif rng.random() < 0.5:
                prog.append(make(
                    Opcode.NDACCUM, src_addr=src_addr, port=src_port,
                    size=size, dst_addr=dst_addr,
                ))
            else:
                prog.append(make(
                    Opcode.PREFETCH, src_addr=src_addr, dst_addr=dst_addr,
                    dst_port=dst_port, size=size,
                ))
        for prog in programs:
            prog.append(make(Opcode.HALT))
        # Host-side regions may be empty or negative; instruction sizes
        # may not (a negative operand reads as a register reference).
        sizes = (-2, 0, 1, 2, 3, 5, 8, 13)
        preloaded = [_random_region(rng, self.PORTS, sizes)
                     for _ in range(int(rng.integers(0, 6)))]
        host_writes = [_random_region(rng, self.PORTS, sizes)
                       for _ in range(int(rng.integers(0, 3)))]
        return programs, preloaded, host_writes

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        programs, preloaded, host_writes = self._random_case(rng)
        found = [
            issue for issue in verify_programs(
                programs, self.SHAPE, preloaded, host_writes
            )
            if "never-written" in issue.message
        ]
        assert found == _oracle_unwritten_reads(
            programs, preloaded, host_writes
        )

    def test_random_sets_report_partial_reads(self):
        """Reads that are only partly written do occur, so the
        missing-word counts and first words above are exercised."""
        from repro.sim.machine import instruction_accesses

        partial = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            programs, preloaded, host_writes = self._random_case(rng)
            tiles = {p.tile: p for p in programs}
            for issue in _oracle_unwritten_reads(
                programs, preloaded, host_writes
            ):
                missing = int(issue.message.split()[1])
                reads, _ = instruction_accesses(tiles[issue.program][issue.pc])
                partial += all(missing < count for _, _, count in reads)
        assert partial > 10

    def test_gap_between_adjacent_writes(self):
        # Words [0, 4) and [4, 6) merge; [8, 10) leaves 6 and 7 unwritten.
        prog = Program(tile="t")
        prog.append(make(Opcode.DMALOAD, src_addr=0, src_port=0,
                         dst_addr=0, dst_port=1, size=10, is_accum=0))
        prog.append(make(Opcode.HALT))
        issues = verify_programs(
            [prog], self.SHAPE,
            preloaded=[(0, 0, 4), (0, 4, 2), (0, 8, 2)],
        )
        assert [i.message for i in issues] == [
            "reads 2 never-written word(s) of tile 0 starting at 6",
        ]
