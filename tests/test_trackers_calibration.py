"""Tests for the static access analysis and tracker calibration pass."""

import numpy as np
import pytest

from repro.compiler.codegen import compile_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.trackers import (
    RangeIndex,
    audit_trackers,
    calibrate_trackers,
    instruction_accesses,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_cnn, tiny_mlp
from repro.errors import ProgramError
from repro.functional import ReferenceModel
from repro.isa import Opcode, Program, make
from repro.sim.machine import pack_shape


class TestInstructionAccesses:
    def test_scalar_instructions_access_nothing(self):
        reads, writes = instruction_accesses(
            make(Opcode.LDRI, rd=1, value=7)
        )
        assert reads == [] and writes == []

    def test_dma(self):
        instr = make(Opcode.DMALOAD, src_addr=4, src_port=0, dst_addr=8,
                     dst_port=1, size=16, is_accum=0)
        reads, writes = instruction_accesses(instr)
        assert reads == [(0, 4, 16)]
        assert writes == [(1, 8, 16)]

    def test_ndconv_output_extent(self):
        instr = make(
            Opcode.NDCONV, in_addr=0, in_port=0,
            in_size=pack_shape(8, 8), kernel_addr=64,
            kernel_size=pack_shape(3, 3), stride=1, pad=1,
            out_addr=0, out_port=1, is_accum=0,
        )
        reads, writes = instruction_accesses(instr)
        assert (0, 0, 64) in reads  # input feature
        assert (0, 64, 9) in reads  # kernel
        assert writes == [(1, 0, 64)]  # same-size output (pad=1)

    def test_matmul(self):
        instr = make(
            Opcode.MATMUL, in1_addr=0, in1_port=0,
            in1_size=pack_shape(1, 12), in2_addr=16, in2_port=0,
            in2_size=pack_shape(5, 12), out_addr=0, out_port=1,
            is_accum=0,
        )
        reads, writes = instruction_accesses(instr)
        assert (0, 0, 12) in reads
        assert (0, 16, 60) in reads
        assert writes == [(1, 0, 5)]

    def test_engine_and_analysis_agree(self):
        """The engine gates exactly the accesses the calibrator counts —
        they share the same function, so a compiled program that runs to
        completion must audit cleanly (checked below), and vice versa."""
        from repro.sim import machine as machine_mod

        assert hasattr(machine_mod, "instruction_accesses")


class TestCalibration:
    def _toy_programs(self):
        """A producer/consumer pair with placeholder tracker counts."""
        producer = Program(tile="producer")
        producer.append(make(
            Opcode.MEMTRACK, addr=0, port=1, size=4,
            num_updates=0, num_reads=0, comment="placeholder",
        ))
        producer.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        producer.append(make(Opcode.HALT))
        consumer = Program(tile="consumer")
        consumer.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=1, dst_addr=0,
            dst_port=2, size=4, is_accum=0,
        ))
        consumer.append(make(
            Opcode.NDACCUM, src_addr=0, port=1, size=4, dst_addr=16,
        ))
        consumer.append(make(Opcode.HALT))
        return producer, consumer

    def test_counts_filled_in(self):
        producer, consumer = self._toy_programs()
        n = calibrate_trackers([producer, consumer])
        assert n == 1
        tracker = producer[0]
        assert tracker.operand("num_updates") == 1  # one DMA write
        assert tracker.operand("num_reads") == 2  # DMA read + NDACCUM read

    def test_dead_tracker_rejected(self):
        prog = Program(tile="dead")
        prog.append(make(
            Opcode.MEMTRACK, addr=100, port=0, size=4,
            num_updates=0, num_reads=0,
        ))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="dead tracker"):
            calibrate_trackers([prog])

    def test_overlapping_trackers_rejected(self):
        prog = Program(tile="overlap")
        for addr in (0, 2):
            prog.append(make(
                Opcode.MEMTRACK, addr=addr, port=0, size=4,
                num_updates=1, num_reads=1,
            ))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="overlapping"):
            calibrate_trackers([prog])

    def test_external_accesses(self):
        prog = Program(tile="inject")
        prog.append(make(
            Opcode.MEMTRACK, addr=0, port=0, size=4,
            num_updates=0, num_reads=0,
        ))
        prog.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        prog.append(make(Opcode.HALT))
        calibrate_trackers([prog], external_updates={(0, 0): 1})
        assert prog[0].operand("num_updates") == 1
        assert prog[0].operand("num_reads") == 1


class TestCompilerAudits:
    """The hand-emitted tracker counts of both compilers match the
    static analysis exactly — the strongest internal consistency check
    the synchronization scheme admits."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_forward_compiler_counts_exact(self, rows):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = ReferenceModel(net, seed=3)
        compiled = compile_forward(net, model, rows=rows)
        audit = audit_trackers(compiled.programs)
        assert audit["mismatches"] == 0
        assert audit["trackers"] > 10

    def test_mlp_forward_counts_exact(self):
        net = tiny_mlp(num_classes=4, in_features=6, hidden=9)
        model = ReferenceModel(net, seed=1)
        compiled = compile_forward(net, model, rows=2)
        assert audit_trackers(compiled.programs)["mismatches"] == 0

    def test_training_compiler_counts_exact(self):
        b = NetworkBuilder("TinyAvgCNN")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1, name="conv1")
        b.pool(2, mode=PoolMode.AVG, name="pool1")
        b.conv(6, kernel=3, pad=1, name="conv2")
        b.fc(3, activation=Activation.SOFTMAX, name="fc")
        net = b.build()
        model = ReferenceModel(net, seed=3)
        compiled = compile_training(net, model, rows=2)
        audit = audit_trackers(
            compiled.forward.programs,
            external_updates={
                (compiled.err_port, compiled.err_addr): 1
            },
        )
        assert audit["mismatches"] == 0
        assert audit["trackers"] > 20


# ---------------------------------------------------------------------------
# Differential test: the indexed calibration against the pairwise scan
# ---------------------------------------------------------------------------
def _oracle_calibrate(programs, external_updates=None, external_reads=None):
    """The O(T²) overlap check and O(A·T) count scan that the indexed
    ``calibrate_trackers`` replaces, kept as the reference."""
    external_updates = external_updates or {}
    external_reads = external_reads or {}

    def overlaps(t, port, addr, count):
        return (port == t["port"] and addr < t["addr"] + t["size"]
                and t["addr"] < addr + count)

    armed = []
    for program in programs:
        for pc, instr in enumerate(program):
            if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
                o = instr.named_operands()
                port = (o["target"] if instr.opcode is Opcode.DMA_MEMTRACK
                        else o["port"])
                armed.append({
                    "program": program, "pc": pc, "port": port,
                    "addr": o["addr"], "size": o["size"],
                    "updates": 0, "reads": 0,
                })
    for i, a in enumerate(armed):
        for b in armed[i + 1:]:
            if overlaps(a, b["port"], b["addr"], b["size"]):
                raise ProgramError(
                    f"overlapping trackers: {a['program'].tile}@{a['pc']} "
                    f"and {b['program'].tile}@{b['pc']} "
                    f"(port {a['port']}, [{a['addr']}, "
                    f"{a['addr'] + a['size']}) vs "
                    f"[{b['addr']}, {b['addr'] + b['size']}))"
                )
    for program in programs:
        for instr in program:
            reads, writes = instruction_accesses(instr)
            for key, quads in (("reads", reads), ("updates", writes)):
                for port, addr, count in quads:
                    for t in armed:
                        if overlaps(t, port, addr, count):
                            t[key] += 1
    for t in armed:
        key = (t["port"], t["addr"])
        t["updates"] += external_updates.get(key, 0)
        t["reads"] += external_reads.get(key, 0)
        if t["updates"] == 0:
            raise ProgramError(
                f"dead tracker (never written): {t['program'].tile}"
                f"@{t['pc']} port {t['port']} addr {t['addr']}"
            )
        old = t["program"][t["pc"]]
        o = old.named_operands()
        o["num_updates"] = t["updates"]
        o["num_reads"] = t["reads"]
        t["program"].instructions[t["pc"]] = make(
            old.opcode, comment=old.comment, **o
        )
    return len(armed)


def _random_tracker_set(rng, overlap):
    """Random programs arming adjacent, zero-size and (when ``overlap``)
    overlapping ranges on several ports, plus data instructions whose
    accesses straddle them; returns (programs, external_updates,
    external_reads)."""
    ports = list(range(int(rng.integers(1, 4))))
    arms = []  # (port, addr, size)
    for port in ports:
        addr = int(rng.integers(0, 8))
        for _ in range(int(rng.integers(1, 7))):
            size = int(rng.choice([0, 1, 2, 3, 5, 8]))
            arms.append((port, addr, size))
            addr += size + int(rng.choice([0, 0, 1, 4]))  # often adjacent
    if overlap:
        for _ in range(int(rng.integers(1, 4))):
            port, addr, size = arms[int(rng.integers(len(arms)))]
            arms.insert(
                int(rng.integers(len(arms) + 1)),
                (port, max(0, addr + int(rng.integers(-2, 3))),
                 int(rng.integers(1, 6))),
            )
    top = max(addr + size for _, addr, size in arms) + 4
    programs = [Program(tile=f"t{i}") for i in range(int(rng.integers(1, 4)))]
    for port, addr, size in arms:
        prog = programs[int(rng.integers(len(programs)))]
        if rng.random() < 0.5:
            prog.append(make(Opcode.MEMTRACK, addr=addr, port=port,
                             size=size, num_updates=0, num_reads=0))
        else:
            # The armed range lives on ``target``; ``port`` is ignored.
            prog.append(make(Opcode.DMA_MEMTRACK, addr=addr, port=7,
                             target=port, size=size, num_updates=0,
                             num_reads=0))
    for _ in range(int(rng.integers(5, 40))):
        prog = programs[int(rng.integers(len(programs)))]
        port = ports[int(rng.integers(len(ports)))]
        # Spans from empty up to wider than several armed ranges.
        addr = int(rng.integers(0, top))
        size = int(rng.choice([0, 1, 2, 4, 9, 17]))
        kind = int(rng.integers(4))
        src, out = (int(a) for a in rng.integers(0, top, size=2))
        if kind == 0:
            prog.append(make(
                Opcode.DMALOAD, src_addr=src,
                src_port=ports[int(rng.integers(len(ports)))],
                dst_addr=addr, dst_port=port, size=size, is_accum=0,
            ))
        elif kind == 1:
            prog.append(make(Opcode.NDACCUM, src_addr=src, port=port,
                             size=size, dst_addr=addr))
        elif kind == 2:
            prog.append(make(Opcode.PREFETCH, src_addr=0, dst_addr=addr,
                             dst_port=port, size=size))
        else:
            prog.append(make(Opcode.VECMUL, in1_addr=addr, in2_addr=src,
                             out_addr=out, port=port, size=size))
    for prog in programs:
        prog.append(make(Opcode.HALT))
    external_updates, external_reads = {}, {}
    for port, addr, _ in arms:
        if rng.random() < 0.3:
            external_updates[(port, addr)] = int(rng.integers(1, 3))
        if rng.random() < 0.3:
            external_reads[(port, addr)] = int(rng.integers(1, 3))
    return programs, external_updates, external_reads


def _outcome(calibrate, programs, *externals):
    clones = [Program(p.tile, list(p.instructions)) for p in programs]
    try:
        result = calibrate(clones, *externals)
    except ProgramError as exc:
        result = f"ProgramError: {exc}"
    return result, [c.instructions for c in clones]


class TestIndexedCalibrationMatchesPairwiseScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_sets(self, seed):
        rng = np.random.default_rng(seed)
        programs, ext_updates, ext_reads = _random_tracker_set(
            rng, overlap=seed % 4 == 3
        )
        for externals in ((), (ext_updates, ext_reads)):
            assert _outcome(calibrate_trackers, programs, *externals) == (
                _outcome(_oracle_calibrate, programs, *externals)
            )

    def test_random_sets_reach_every_outcome(self):
        """The generator exercises calibrated sets, dead trackers and
        overlap errors alike, so the comparison above is not vacuous."""
        kinds = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            programs, ext_updates, ext_reads = _random_tracker_set(
                rng, overlap=seed % 4 == 3
            )
            result, _ = _outcome(
                _oracle_calibrate, programs, ext_updates, ext_reads
            )
            kinds.add(
                result.split(" (")[0].split(":")[1].strip()
                if isinstance(result, str) else "calibrated"
            )
        assert {"calibrated", "dead tracker", "overlapping trackers"} <= kinds

    def test_overlapping_triple_names_first_pair_in_program_order(self):
        # [4, 8) overlaps both [0, 6) and [6, 10): the pairwise scan names
        # the armed-first pair, and so must the indexed check.
        prog = Program(tile="triple")
        for addr, size in ((6, 4), (4, 4), (0, 6)):
            prog.append(make(Opcode.MEMTRACK, addr=addr, port=2, size=size,
                             num_updates=0, num_reads=0))
        prog.append(make(Opcode.HALT))
        expected, _ = _outcome(_oracle_calibrate, [prog])
        assert expected.startswith("ProgramError: overlapping trackers: "
                                   "triple@0 and triple@1")
        assert _outcome(calibrate_trackers, [prog])[0] == expected

    def test_zero_size_range_inside_another_overlaps(self):
        prog = Program(tile="zero")
        prog.append(make(Opcode.MEMTRACK, addr=0, port=0, size=8,
                         num_updates=0, num_reads=0))
        prog.append(make(Opcode.MEMTRACK, addr=3, port=0, size=0,
                         num_updates=0, num_reads=0))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="overlapping"):
            calibrate_trackers([prog])

    def test_zero_size_range_at_a_boundary_does_not_overlap(self):
        prog = Program(tile="edge")
        for addr, size in ((0, 4), (4, 0), (4, 4)):
            prog.append(make(Opcode.MEMTRACK, addr=addr, port=0, size=size,
                             num_updates=0, num_reads=0))
        prog.append(make(Opcode.DMALOAD, src_addr=0, src_port=1,
                         dst_addr=2, dst_port=0, size=4, is_accum=0))
        prog.append(make(Opcode.HALT))
        assert calibrate_trackers([prog]) == 3
        # The write [2, 6) covers word 4 strictly inside, so it updates
        # the zero-size range at 4 as well as both neighbours.
        assert [prog[pc].operand("num_updates") for pc in range(3)] == [
            1, 1, 1,
        ]


class _Range:
    def __init__(self, port, addr, size):
        self.port, self.addr, self.size = port, addr, size


class TestRangeIndex:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("disjoint", [True, False])
    def test_hits_match_the_overlap_predicate(self, seed, disjoint):
        """Disjoint ranges and arbitrary ones (nested, overlapping,
        zero-size, negative-size) alike return exactly the ranges the
        pairwise predicate selects."""
        rng = np.random.default_rng(seed)
        ranges = []
        for port in range(3):
            addr = 0
            for _ in range(int(rng.integers(0, 10))):
                if disjoint:
                    size = int(rng.integers(0, 5))
                    ranges.append(_Range(port, addr, size))
                    addr += size + int(rng.integers(0, 3))
                else:
                    ranges.append(_Range(
                        port, int(rng.integers(0, 20)),
                        int(rng.integers(-3, 8)),
                    ))
        index = RangeIndex(ranges)
        for port in range(4):
            for addr in range(-2, 24):
                for count in (-1, 0, 1, 2, 5, 30):
                    expected = {
                        id(r) for r in ranges
                        if r.port == port and addr < r.addr + r.size
                        and r.addr < addr + count
                    }
                    found = index.hits(port, addr, count)
                    assert len(found) == len(expected)
                    assert {id(r) for r in found} == expected
        pairwise = any(
            a.port == b.port and b.addr < a.addr + a.size
            and a.addr < b.addr + b.size
            for i, a in enumerate(ranges) for b in ranges[i + 1:]
        )
        # The sweep may flag negative-size sets the predicate clears
        # (calibration then reruns the pairwise scan); it never misses.
        assert index.has_overlap() >= pairwise
        if disjoint:
            assert not index.has_overlap()
