"""Closure-free decode, memoized tracker gates, index-based accesses.

Each fast-path mechanism is pinned against an oracle kept here:

* the frozen per-network engine counts (``tests/data/engine_counts.json``);
* the un-memoized tracker gate — every call polls the trackers — which
  must leave the machine, the reports, the deadlock text and the
  telemetry exactly where the memoized gate leaves them;
* the dict-based ``instruction_accesses`` derivation, against the
  index-based one the compiler and the engine share.
"""

import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler import codegen, codegen_training
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, ConvSpec, FCSpec
from repro.dnn.zoo import lenet5, tiny_cnn, tiny_mlp
from repro.dnn.zoo.engine_proxies import engine_proxy
from repro.errors import SimulationError
from repro.functional.reference import ReferenceModel
from repro.isa import assemble
from repro.isa.instructions import OPERAND_NAMES, Instruction, Opcode
from repro.sim.engine import EXTERNAL_PORT, Engine
from repro.sim.machine import (
    REG_OPERAND_FLAG,
    Machine,
    has_reg_operands,
    instruction_accesses,
    pack_shape,
    unpack_shape,
)
from repro.sim.tracker import AccessVerdict, TrackerFile
from repro.telemetry import capture
from tests import engine_counts


def _image(net, seed=0):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


@pytest.fixture(scope="module")
def of_fast():
    net = engine_proxy("OF-Fast")
    return net, compile_dag_forward(net, ReferenceModel(net, seed=0), rows=2)


@pytest.fixture(scope="module")
def lenet():
    net = lenet5()
    return net, compile_dag_forward(net, ReferenceModel(net, seed=0), rows=2)


# ----------------------------------------------------------------------
# Frozen engine counts
# ----------------------------------------------------------------------
def test_frozen_engine_counts_small_nets():
    """LeNet-5 and TinyCNN through ``validate_zoo`` reproduce the frozen
    unfused reports, fused makespans and output hashes (CI checks every
    row)."""
    counts = engine_counts.collect(["LeNet-5", "TinyCNN"])
    assert sorted(counts) == ["LeNet-5", "TinyCNN"]
    assert engine_counts.mismatches(counts, engine_counts.load()) == []


# ----------------------------------------------------------------------
# Gate memo vs the polling gate
# ----------------------------------------------------------------------
class PollingEngine(Engine):
    """The engine with the un-memoized gate: every call polls the
    trackers (the gate before blocked verdicts were replayed)."""

    def _gate_quads(self, comp, entry):
        for trackers, port, addr, count in entry.reads:
            if trackers.read_blocked(addr, count):
                self._note_block(
                    comp, ("read", port, addr, count, "updating")
                )
                return False
        for trackers, port, addr, count in entry.writes:
            if trackers.write_blocked(addr, count):
                self._note_block(
                    comp, ("write", port, addr, count, "readable")
                )
                return False
        for trackers, _port, addr, count in entry.reads:
            assert trackers.check_read(addr, count) is AccessVerdict.ALLOW
        for trackers, _port, addr, count in entry.writes:
            assert trackers.check_write(addr, count) is AccessVerdict.ALLOW
        return True


def _recording(cls, runs):
    """``cls`` that appends (report, machine state, block reasons) to
    ``runs`` after every run."""

    class Recording(cls):
        def run(self, *args, **kwargs):
            report = super().run(*args, **kwargs)
            runs.append((report, _machine_state(self), self._block_reason))
            return report

    return Recording


def _machine_state(engine):
    machine = engine.machine
    return (
        engine.rounds,
        {
            t.tile_id: (
                t.cycles, t.stalled_cycles, t.blocked_retries,
                t.instructions_executed, t.pc, t.halted, t.blocked,
            )
            for t in machine.comp_tiles.values()
        },
        [
            (m.trackers.blocked_reads, m.trackers.blocked_writes)
            for m in machine.mem_tiles
        ],
    )


def _forward(compiled, image, cls, fused):
    runs = []
    with mock.patch.object(codegen, "Engine", _recording(cls, runs)):
        out, report = compiled.run(image, fused=fused)
    (run,) = runs
    return out, report, run


class TestGateMemo:
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("net_fixture", ["of_fast", "lenet"])
    def test_matches_polling_gate(self, request, net_fixture, fused):
        net, compiled = request.getfixturevalue(net_fixture)
        image = _image(net)
        out, report, run = _forward(compiled, image, Engine, fused)
        ref_out, ref_report, ref_run = _forward(
            compiled, image, PollingEngine, fused
        )
        assert report.blocked_reads > 0
        assert report == ref_report
        assert run == ref_run
        assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize("fused", [False, True])
    def test_streamed_runner_matches_polling_gate(self, lenet, fused):
        """Three images on one persistent machine: memos recorded on
        one image must never replay on the next."""
        net, compiled = lenet
        outputs = {}
        for cls in (Engine, PollingEngine):
            runs = []
            with mock.patch.object(codegen, "Engine", _recording(cls, runs)):
                runner = compiled.runner(fused=fused)
            outs = [runner(_image(net, seed=i)) for i in range(3)]
            outputs[cls] = (outs, runs)
        (outs, runs), (ref_outs, ref_runs) = outputs.values()
        assert runs == ref_runs
        for (out, report), (ref_out, ref_report) in zip(outs, ref_outs):
            assert report == ref_report
            assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize(
        "build, minibatch",
        [(tiny_cnn, 1), (lambda: tiny_mlp(num_classes=4), 2)],
    )
    def test_training_pause_and_inject(self, build, minibatch):
        """The FP run pauses (``raise_on_deadlock=False``) with BP tiles
        blocked, the host injects the loss gradient, BP resumes — every
        run's machine state equals the polling gate's."""
        results = []
        for cls in (Engine, PollingEngine):
            net = build()
            compiled = compile_training(
                net, ReferenceModel(net, seed=0), rows=2,
                learning_rate=(1, 100), minibatch=minibatch,
            )
            runs = []
            images = np.stack([_image(net, seed=i) for i in range(2)])
            with mock.patch.object(
                codegen_training, "Engine", _recording(cls, runs)
            ):
                if minibatch == 1:
                    steps = [
                        compiled.train_step(image, 1)[1:]
                        for image in images
                    ]
                else:
                    steps = [compiled.train_minibatch(images, [0, 1])]
            weights = [
                compiled.read_weights(node.name) for node in net.nodes
                if isinstance(node.spec, (ConvSpec, FCSpec))
            ]
            results.append((runs, steps, weights))
        (runs, steps, weights), (ref_runs, ref_steps, ref_weights) = results
        paused = [state for _, state, _ in runs if any(
            tile[6] and not tile[5] for tile in state[1].values()
        )]
        assert paused, "expected an FP run that pauses on blocked tiles"
        assert runs == ref_runs
        assert steps == ref_steps
        for w, ref_w in zip(weights, ref_weights):
            assert np.array_equal(w, ref_w)

    def test_telemetry_events_match(self, lenet):
        net, compiled = lenet
        captured = []
        for cls in (Engine, PollingEngine):
            with capture() as tel:
                _forward(compiled, _image(net), cls, fused=False)
            events = [
                e for e in tel.events
                if e.name.startswith(("blocked.", "tracker."))
            ]
            captured.append((events, tel.counters.rows()))
        (events, counters), (ref_events, ref_counters) = captured
        assert any(e.name.startswith("blocked.") for e in events)
        assert any(e.name.startswith("tracker.") for e in events)
        assert events == ref_events
        assert counters == ref_counters

    def test_deadlock_diagnostic_matches(self):
        """Two tiles stay blocked — one read, one write — while a third
        works first on another tile's trackers (their verdicts replay)
        and then on theirs (the memos go stale), then halts."""
        stuck = """
            MEMTRACK addr=0, port=0, size=4, num_updates=1, num_reads=1
            DMALOAD src_addr=0, src_port=0, dst_addr=0, dst_port=1, size=4, is_accum=0
            HALT
        """
        full = """
            MEMTRACK addr=8, port=0, size=4, num_updates=0, num_reads=1
            DMALOAD src_addr=0, src_port=65535, dst_addr=8, dst_port=0, size=4, is_accum=0
            HALT
        """
        busy = "\n".join(
            f"""
            MEMTRACK addr={a}, port={port}, size=4, num_updates=1, num_reads=1
            DMALOAD src_addr=0, src_port=65535, dst_addr={a}, dst_port={port}, size=4, is_accum=0
            DMALOAD src_addr={a}, src_port={port}, dst_addr=0, dst_port=65535, size=4, is_accum=0
            """
            for port, a in [(1, 100), (1, 200), (1, 300), (0, 100), (0, 200)]
        ) + "\nHALT"
        messages = []
        for cls in (Engine, PollingEngine):
            m = Machine(conv_chip(), 2, 1)
            for name, source in (("stuck", stuck), ("full", full),
                                 ("busy", busy)):
                m.load_program(assemble(source, tile=name))
            engine = cls(m)
            with pytest.raises(SimulationError, match="deadlock") as exc:
                engine.run()
            messages.append((str(exc.value), _machine_state(engine)))
        assert messages[0] == messages[1]
        text = messages[0][0]
        assert "stuck: read of mem tile 0 [0, 4)" in text
        assert "full: write of mem tile 0 [8, 12)" in text
        assert "after 16 retries" in text


class TestTrackerVersion:
    """Every state change of a tracker file bumps ``version`` (the gate
    memo's invalidation); peeks and statistics do not."""

    def test_arm_bumps(self):
        f = TrackerFile(4)
        f.arm(0, 4, 1, 1)
        assert f.version == 1

    def test_consuming_checks_bump(self):
        f = TrackerFile(4)
        f.arm(0, 4, 1, 1)
        v = f.version
        assert f.check_write(0, 4) is AccessVerdict.ALLOW
        assert f.version > v
        v = f.version
        assert f.check_read(0, 4) is AccessVerdict.ALLOW
        assert f.version > v

    def test_reap_that_removes_bumps(self):
        f = TrackerFile(4)
        f.arm(0, 4, 0, 1)
        f.check_read(0, 4)  # now expired, not yet reaped
        v = f.version
        assert len(f) == 0
        assert f.version > v
        v = f.version
        assert len(f) == 0  # nothing left to remove
        assert f.version == v

    def test_force_expire_bumps(self):
        f = TrackerFile(4)
        f.arm(0, 4, 2, 2)
        v = f.version
        f.expire(0, 4)
        assert f.version > v
        assert len(f) == 0

    def test_peeks_and_untracked_checks_do_not_bump(self):
        f = TrackerFile(4)
        f.arm(0, 4, 1, 1)
        v = f.version
        assert f.read_blocked(0, 4)
        assert not f.write_blocked(0, 4)
        assert f.check_read(16, 4) is AccessVerdict.ALLOW
        assert f.phase_of(0, 4) is not None
        f.expire(16, 4)
        assert f.version == v
        assert f.blocked_reads == 1


# ----------------------------------------------------------------------
# Decoded entries hold no reference to the engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fused", [True, False])
def test_engine_freed_without_garbage_collection(fused):
    """With the collector off, the engine dies when ``run()`` returns:
    nothing it decoded refers back to it, so no reference cycle keeps
    it (and its decoded tables) alive until the next full collection."""
    net = tiny_cnn(num_classes=4, in_size=8)
    compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
    refs = []

    class Tracked(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    image = _image(net)
    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(codegen, "Engine", Tracked):
            compiled.run(image, fused=fused)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Index-based instruction_accesses vs the dict-based derivation
# ----------------------------------------------------------------------
def _conv_out(extent, kernel, stride, pad):
    return (extent + 2 * pad - kernel) // stride + 1


def dict_accesses(instr):
    """The dict-based derivation: operands looked up by name through
    ``named_operands()``."""
    op = instr.opcode
    o = instr.named_operands()
    if has_reg_operands(instr):
        raise SimulationError(
            f"{op.value} uses register-indirect operands; accesses are "
            "only known at execution time"
        )
    reads, writes = [], []
    if op is Opcode.NDCONV:
        h, w = unpack_shape(o["in_size"])
        k, _ = unpack_shape(o["kernel_size"])
        out_h = _conv_out(h, k, o["stride"], o["pad"])
        out_w = _conv_out(w, k, o["stride"], o["pad"])
        reads.append((o["in_port"], o["in_addr"], h * w))
        reads.append((o["in_port"], o["kernel_addr"], k * k))
        writes.append((o["out_port"], o["out_addr"], out_h * out_w))
    elif op is Opcode.MATMUL:
        rows, cols = unpack_shape(o["in2_size"])
        _, n = unpack_shape(o["in1_size"])
        reads.append((o["in1_port"], o["in1_addr"], n))
        reads.append((o["in2_port"], o["in2_addr"], rows * cols))
        writes.append((o["out_port"], o["out_addr"], rows))
    elif op is Opcode.NDACTFN:
        reads.append((o["port"], o["in_addr"], o["size"]))
        writes.append((o["out_port"], o["out_addr"], o["size"]))
    elif op is Opcode.NDACTBP:
        reads.append((o["port"], o["err_addr"], o["size"]))
        reads.append((o["port"], o["err_addr"] + o["size"], o["size"]))
        writes.append((o["out_port"], o["out_addr"], o["size"]))
    elif op is Opcode.NDSUBSAMP:
        h, w = unpack_shape(o["in_size"])
        out_h = (h - o["window"]) // o["stride"] + 1
        out_w = (w - o["window"]) // o["stride"] + 1
        reads.append((o["port"], o["in_addr"], h * w))
        writes.append((o["out_port"], o["out_addr"], out_h * out_w))
    elif op is Opcode.NDUPSAMP:
        h, w = unpack_shape(o["in_size"])
        stride = o["stride"]
        reads.append((o["port"], o["in_addr"], h * w))
        if o["samp_type"] == 2:
            out = ((h - 1) * stride + 1) * ((w - 1) * stride + 1)
        else:
            out = h * stride * w * stride
            if o["samp_type"] == 0:
                reads.append((o["port"], o["in_addr"] + h * w, out))
        writes.append((o["out_port"], o["out_addr"], out))
    elif op is Opcode.NDACCUM:
        reads.append((o["port"], o["src_addr"], o["size"]))
        writes.append((o["port"], o["dst_addr"], o["size"]))
    elif op is Opcode.VECMUL:
        reads.append((o["port"], o["in1_addr"], o["size"]))
        reads.append((o["port"], o["in2_addr"], o["size"]))
        writes.append((o["port"], o["out_addr"], o["size"]))
    elif op is Opcode.WUPDATE:
        reads.append((o["port"], o["grad_addr"], o["size"]))
        writes.append((o["port"], o["weight_addr"], o["size"]))
    elif op in (Opcode.DMALOAD, Opcode.DMASTORE):
        reads.append((o["src_port"], o["src_addr"], o["size"]))
        writes.append((o["dst_port"], o["dst_addr"], o["size"]))
    elif op is Opcode.PREFETCH:
        writes.append((o["dst_port"], o["dst_addr"], o["size"]))
    return reads, writes


def _outcome(derive, instr):
    try:
        return derive(instr)
    except Exception as exc:  # compared by type and text
        return type(exc).__name__, str(exc)


def _mismatches(instrs):
    return [
        (str(instr), _outcome(instruction_accesses, instr),
         _outcome(dict_accesses, instr))
        for instr in instrs
        if _outcome(instruction_accesses, instr)
        != _outcome(dict_accesses, instr)
    ]


def _gated_net():
    """A DAG with an element-wise product, which lowers to VECMUL."""
    b = NetworkBuilder("gates")
    b.input(4, 1)
    a = b.fc(4, activation=Activation.SIGMOID, name="a")
    c = b.fc(4, activation=Activation.TANH, name="c", inputs=["input"])
    b.multiply([a, c])
    b.fc(2, activation=Activation.SOFTMAX)
    return b.build()


class TestIndexedAccesses:
    def test_compiled_dag_proxies(self, of_fast):
        instrs = [i for p in of_fast[1].programs for i in p]
        for name in ("ResNet18", "GoogLeNet"):
            net = engine_proxy(name)
            compiled = compile_dag_forward(
                net, ReferenceModel(net, seed=0), rows=2
            )
            instrs += [i for p in compiled.programs for i in p]
        assert len(instrs) > 90_000
        assert _mismatches(instrs) == []

    def test_training_programs(self):
        instrs = []
        for net, minibatch in (
            (tiny_cnn(), 1), (tiny_cnn(), 2), (tiny_mlp(), 1),
            (tiny_mlp(), 2),
        ):
            compiled = compile_training(
                net, ReferenceModel(net, seed=0), rows=2,
                minibatch=minibatch,
            )
            instrs += [i for p in compiled.forward.programs for i in p]
        net = _gated_net()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        instrs += [i for p in compiled.programs for i in p]
        opcodes = {i.opcode for i in instrs}
        assert {
            Opcode.NDACTBP, Opcode.NDUPSAMP, Opcode.VECMUL, Opcode.WUPDATE,
        } <= opcodes
        assert _mismatches(instrs) == []

    def test_random_operands(self):
        """Seeded random operand tuples for every opcode: negative
        immediates, register-flag operands, packed shapes, zero strides
        (both raise ZeroDivisionError) and out-of-range values."""
        rng = random.Random(1234)

        def operand():
            kind = rng.randrange(6)
            if kind == 0:
                return rng.randrange(0, 64)
            if kind == 1:
                return -rng.randrange(1, 1 << 20)
            if kind == 2:
                return REG_OPERAND_FLAG | rng.randrange(64)
            if kind == 3:
                return pack_shape(rng.randrange(1, 40), rng.randrange(1, 40))
            if kind == 4:
                return rng.choice((0, 1, 2, 3, EXTERNAL_PORT))
            return rng.randrange(1 << 31)

        instrs = []
        for op in Opcode:
            arity = len(OPERAND_NAMES[op])
            for _ in range(300):
                instrs.append(
                    Instruction(op, tuple(operand() for _ in range(arity)))
                )
        outcomes = [_outcome(dict_accesses, i) for i in instrs]
        assert any(isinstance(o[0], str) for o in outcomes)  # raised
        assert any(isinstance(o[0], list) and o[0] for o in outcomes)
        assert _mismatches(instrs) == []
