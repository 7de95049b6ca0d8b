"""Decoded-engine equivalence: frozen answers, fusion and batching.

The engine decodes each tile's program once into a flat op table; the
fused path runs the compiler's superops, and the batched path
vectorises the decoded ops — by default the superops — across a
minibatch.  The unfused single-image run is pinned to the outputs and
RunReports the per-round interpreter produced before the decoded
kernels became the engine's only data-op semantics (``FROZEN``), and
to the numpy reference forward pass; the fused and batched paths are
pinned to the unfused run — same outputs (bit-for-bit except the
unfused batched kernels), same RunReport, same fault behaviour.
"""

import gc
import hashlib
import types
import weakref

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.codegen_dag import compile_dag_forward, run_dag_batch
from repro.dnn.layers import Activation
from repro.dnn.zoo import lenet5, tiny_cnn, tiny_mlp
from repro.errors import SimulationError
from repro.functional.reference import ReferenceModel
from repro.isa import assemble
from repro.sim.engine import ACT_CODES, MIRROR_GRANULE, Engine, RunReport
from repro.sim.machine import Machine, instruction_accesses

NETS = {
    "TinyMLP": lambda: tiny_mlp(num_classes=4, in_features=8, hidden=12),
    "TinyCNN-8": lambda: tiny_cnn(num_classes=4, in_size=8),
    "TinyCNN-16": lambda: tiny_cnn(num_classes=4, in_size=16),
    "LeNet-5": lenet5,
}

BATCH = 3

#: The per-round interpreter's answers on ``_image(net)`` (rows=2,
#: reference seed 0), recorded before it was deleted: the SHA-256 of
#: the output bytes and the RunReport.  The hashes come from numpy
#: 2.4.6 on x86-64; a BLAS build that rounds differently may need them
#: regenerated.
FROZEN = {
    "LeNet-5": (
        "8ccca9ba657a2d5b8dff6c072762254ea425274a618ad395c3b7f60dad1cec06",
        RunReport(cycles=9053, instructions=2233, rounds=1095,
                  blocked_reads=3495, blocked_writes=0, busy_cycles=22817),
    ),
    "TinyCNN-16": (
        "a8cfd9c61c695dfdcb690898f19eb8d10cdc1ccee2577903e8770fb98530df65",
        RunReport(cycles=1041, instructions=271, rounds=116,
                  blocked_reads=578, blocked_writes=0, busy_cycles=3572),
    ),
    "TinyCNN-8": (
        "21d1d6b571c3083ea2d6b409705c5bd5a2b38fbd5a3382e7731e75f67c603bb1",
        RunReport(cycles=739, instructions=271, rounds=116,
                  blocked_reads=578, blocked_writes=0, busy_cycles=2210),
    ),
    "TinyMLP": (
        "091050c0f61f4b61241394c729a8cdd06ad793e6eeef7e57ad31c630c26268f5",
        RunReport(cycles=45, instructions=27, rounds=14, blocked_reads=4,
                  blocked_writes=0, busy_cycles=123),
    ),
}

#: The same interpreter's dma-bitflip run of TinyCNN-8 (``_faults()``):
#: flips injected, output SHA-256 and RunReport.
FROZEN_FLIPS = (
    11,
    "11fe1f501ef594a554f64ecf192afc12a65c2663804a2728e5ad804b78a50702",
    RunReport(cycles=739, instructions=271, rounds=116, blocked_reads=578,
              blocked_writes=0, busy_cycles=2210),
)


def _sha256(out):
    return hashlib.sha256(out.tobytes()).hexdigest()


def _image(net, seed=0):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


@pytest.fixture(scope="module", params=sorted(NETS))
def case(request):
    """One compiled network with unfused, fused and batched runs."""
    net = NETS[request.param]()
    model = ReferenceModel(net, seed=0)
    compiled = compile_dag_forward(net, model, rows=2)
    image = _image(net)
    fast_out, fast_report = compiled.run(image, fused=False)
    fused_out, fused_report = compiled.run(image, fused=True)
    images = np.stack([_image(net, seed=i) for i in range(BATCH)])
    batch_out, batch_report = compiled.run_batch(images)
    unfused_batch_out, unfused_batch_report = compiled.run_batch(
        images, fused=False
    )
    per_image = [compiled.run(img, fused=False)[0] for img in images]
    fused_per_image = [compiled.run(img) for img in images]
    return types.SimpleNamespace(
        name=request.param, net=net, compiled=compiled,
        reference=model.forward(image).reshape(-1),
        fast_out=fast_out, fast_report=fast_report,
        fused_out=fused_out, fused_report=fused_report,
        images=images, batch_out=batch_out, batch_report=batch_report,
        unfused_batch_out=unfused_batch_out,
        unfused_batch_report=unfused_batch_report,
        per_image=per_image, fused_per_image=fused_per_image,
    )


class TestFastPathEquivalence:
    def test_outputs_bit_identical(self, case):
        """The decoded kernels reproduce the per-round interpreter's
        outputs bit for bit — not just approximately — and agree with
        the numpy reference forward pass."""
        assert _sha256(case.fast_out) == FROZEN[case.name][0], case.name
        np.testing.assert_allclose(
            case.fast_out, case.reference, rtol=0, atol=1e-5,
            err_msg=case.name,
        )

    def test_reports_identical(self, case):
        assert case.fast_report == FROZEN[case.name][1], case.name

    def test_report_is_nontrivial(self, case):
        assert case.fast_report.instructions > 0
        assert case.fast_report.cycles > 0
        assert case.fast_report.rounds > 0


class TestSuperopFusion:
    """Fused (superop) execution vs the per-instruction fast path.

    The contract: outputs, instruction counts and busy cycles (the sum
    of decoded per-instruction costs) are bit-identical; only the
    makespan-side stats (cycles/rounds/blocked counts) may shrink, as
    superops compress tracker-stall rounds away.
    """

    def test_fused_outputs_bit_identical(self, case):
        assert np.array_equal(case.fused_out, case.fast_out), case.name

    def test_fused_report_reconciles(self, case):
        assert case.fused_report.instructions == (
            case.fast_report.instructions
        ), case.name
        assert case.fused_report.busy_cycles == (
            case.fast_report.busy_cycles
        ), case.name

    def test_fused_makespan_no_worse(self, case):
        assert case.fused_report.cycles <= case.fast_report.cycles
        assert case.fused_report.rounds <= case.fast_report.rounds

    def test_programs_carry_superops(self, case):
        assert any(p.superops for p in case.compiled.programs), case.name

    def test_fusion_flag_separates_cache_keys(self):
        """fuse=True and fuse=False artifacts must not collide in the
        compile cache: a collision would hand the fused plan to a
        caller that asked for the plain fast path."""
        from repro.sweep.cache import (
            CompileCache, cached_dag_forward_codegen,
        )

        net = NETS["TinyCNN-8"]()
        cache = CompileCache()
        fused = cached_dag_forward_codegen(net, cache=cache, fuse=True)
        plain = cached_dag_forward_codegen(net, cache=cache, fuse=False)
        assert any(p.superops for p in fused.programs)
        assert all(not p.superops for p in plain.programs)

    def test_fallback_counters_name_opcode_and_reason(self):
        """Instructions the decoder refuses are counted per opcode with
        the refusal reason (satellite: no more silent bare-except)."""
        from repro.telemetry import capture

        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with capture() as tel:
            compiled.run(_image(net), fused=False)
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks, "expected at least the HALT scalar fallbacks"
        assert all(":" in key for key in fallbacks)
        assert any(key.endswith(":scalar-control") for key in fallbacks)

    def test_compiled_programs_only_fall_back_for_scalar_control(self):
        """A compiled DAG program leaves only scalar control to issue
        time: every data op takes a decoded kernel, none the per-issue
        register-resolve path."""
        from repro.telemetry import capture

        net = lenet5()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with capture() as tel:
            compiled.run(_image(net), fused=False)
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks
        assert all(key.endswith(":scalar-control") for key in fallbacks), (
            sorted(fallbacks)
        )

    def test_unexpected_decode_error_surfaces(self, monkeypatch):
        """Only the error types an instruction raises when issued may
        decode to a raising entry; an unexpected exception is an engine
        bug and must propagate (the old bare ``except Exception``
        swallowed it)."""
        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))

        def boom(self, instr, tile_id):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(Engine, "_decode_data", boom)
        with pytest.raises(RuntimeError, match="engine bug"):
            compiled.run(_image(net), fused=False)


class TestBatchedExecution:
    def test_batch_report_matches_single_image(self, case):
        """Cycle accounting models one image's program: the unfused
        batched report is identical to the single-image unfused fast
        report."""
        assert case.unfused_batch_report == case.fast_report, case.name

    def test_fused_batch_report_matches_fused_run(self, case):
        """The default (fused) batched run executes the same superop
        plan as a fused single-image run, so its report equals it."""
        assert case.batch_report == case.fused_report, case.name
        for _, report in case.fused_per_image:
            assert case.batch_report == report, case.name

    def test_fused_batch_rows_bit_identical(self, case):
        """Each batched row equals the fused single-image run of that
        image bit for bit — one superop kernel serves both modes."""
        assert case.batch_out.shape[0] == BATCH
        for i, (expected, _) in enumerate(case.fused_per_image):
            assert np.array_equal(case.batch_out[i], expected), (
                f"{case.name} image {i}"
            )

    def test_unfused_batch_outputs_match_unfused_per_image(self, case):
        """The per-instruction batched kernels agree with the unfused
        single-image run within float32 reduction-order noise."""
        for i, expected in enumerate(case.per_image):
            np.testing.assert_allclose(
                case.unfused_batch_out[i], expected, rtol=0, atol=1e-5,
                err_msg=f"{case.name} image {i}",
            )

    def test_batch_outputs_match_unfused_per_image(self, case):
        """Batched outputs agree with running each image through the
        unfused single-image path (within float32 BLAS reduction-order
        noise)."""
        assert case.batch_out.shape[0] == BATCH
        for i, expected in enumerate(case.per_image):
            np.testing.assert_allclose(
                case.batch_out[i], expected, rtol=0, atol=1e-5,
                err_msg=f"{case.name} image {i}",
            )

    def test_batch_first_image_matches_fast(self, case):
        np.testing.assert_allclose(
            case.batch_out[0], case.fast_out, rtol=0, atol=1e-5
        )

    def test_run_dag_batch_entry_point(self):
        net = tiny_mlp(num_classes=4, in_features=8, hidden=12)
        model = ReferenceModel(net, seed=0)
        images = np.stack([_image(net, seed=i) for i in range(2)])
        out, report = run_dag_batch(net, model, images)
        assert out.shape == (2, 4)
        assert report.instructions > 0

    def test_run_batch_rejects_single_image(self):
        net = tiny_mlp(num_classes=4, in_features=8, hidden=12)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with pytest.raises(SimulationError):
            compiled.run_batch(_image(net).reshape(-1))

    def test_batch_state_freed_on_return(self, monkeypatch):
        """The (batch, words) mirrors die when run_batch returns, not at
        the next full garbage collection (the engine's decoded closures
        form a reference cycle that would otherwise hold them)."""
        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        images = np.stack([_image(net, seed=i) for i in range(2)])
        states = []
        make_batch = Engine.make_batch

        def spy(self, batch):
            state = make_batch(self, batch)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(Engine, "make_batch", spy)
        enabled = gc.isenabled()
        gc.disable()
        try:
            compiled.run_batch(images)
            assert len(states) == 1
            assert states[0]() is None
        finally:
            if enabled:
                gc.enable()


class TestBatchMirrors:
    """``BatchState`` mirrors: seeded from the machine's words, private
    per image, bounds-checked against the whole scratchpad."""

    def _state(self):
        machine = Machine(conv_chip(), 1, 1)
        high = np.arange(8, dtype=np.float32) + 100.0
        machine.mem_tile(0).write(100_000, high, False)
        return machine, high, Engine(machine).make_batch(BATCH)

    def test_growth_seeds_from_machine_and_keeps_rows(self):
        machine, high, state = self._state()
        low = np.arange(BATCH * 4, dtype=np.float32).reshape(BATCH, 4)
        state.write(0, 16, low, False)
        got = state.read(0, 100_000, 8)
        assert got.shape == (BATCH, 8)
        for row in got:
            assert np.array_equal(row, high)
        assert np.array_equal(state.read(0, 16, 4), low)
        # The run writes only to the mirrors; the machine is untouched.
        assert not machine.mem_tile(0).read(16, 4).any()

    def test_out_of_bounds_text_names_full_tile(self):
        _, _, state = self._state()
        with pytest.raises(SimulationError) as err:
            state.read(0, 131_070, 4)
        assert str(err.value) == (
            "port 0: batched read [131070, 131074) out of bounds "
            "(131072 words)"
        )
        with pytest.raises(SimulationError) as err:
            state.write(0, -1, np.zeros((BATCH, 2), np.float32), False)
        assert str(err.value) == (
            "port 0: batched write [-1, 1) out of bounds (131072 words)"
        )
        with pytest.raises(SimulationError) as err:
            state.write(0, 131_071, np.zeros((BATCH, 2), np.float32), True)
        assert str(err.value) == (
            "port 0: batched write [131071, 131073) out of bounds "
            "(131072 words)"
        )
        # The last word itself is in bounds.
        assert state.read(0, 131_071, 1).shape == (BATCH, 1)

    def test_run_batch_mirrors_only_touched_prefix(self, monkeypatch):
        """Each mirror stops at its port's highest accessed word (per
        the static accesses of the programs), rounded up to the growth
        granule — never the whole tile — and the batched run still
        equals the streamed runs bit for bit."""
        net = lenet5()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        highest = {}
        for program in compiled.programs:
            for instr in program.instructions:
                reads, writes = instruction_accesses(instr)
                for port, addr, count in reads + writes:
                    highest[port] = max(highest.get(port, 0), addr + count)
        states = []
        make_batch = Engine.make_batch

        def spy(self, batch):
            state = make_batch(self, batch)
            states.append(state)
            return state

        monkeypatch.setattr(Engine, "make_batch", spy)
        images = np.stack([_image(net, seed=i) for i in range(BATCH)])
        outputs, report = compiled.run_batch(images)
        (state,) = states
        tile_words = conv_chip().mem_tile.capacity_bytes // 4
        assert state._mem
        for port, mirror in state._mem.items():
            bound = -(-highest[port] // MIRROR_GRANULE) * MIRROR_GRANULE
            assert mirror.shape[0] == BATCH
            assert mirror.shape[1] <= bound, (port, mirror.shape, bound)
            assert mirror.shape[1] < tile_words, port
        runner = compiled.runner()
        for i, image in enumerate(images):
            out, expected = runner(image)
            assert np.array_equal(outputs[i], out), i
            assert report == expected, i


#: Superop kinds the fused batched path must exercise at batch > 1.
SUPEROP_KINDS = {"load_run", "conv_block", "fc_block", "pool_run"}


class TestBatchedSuperops:
    """Every superop kind, and a softmax fc_block, runs batched."""

    @pytest.fixture(scope="class")
    def dispatched(self):
        """Per network: the superops of its programs and the superop
        spans a fused batched run emitted."""
        from repro.telemetry import capture

        runs = {}
        for name in ("TinyCNN-8", "LeNet-5"):
            net = NETS[name]()
            compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
            images = np.stack([_image(net, seed=i) for i in range(BATCH)])
            with capture() as tel:
                compiled.run_batch(images)
            spans = [
                event.name for event in tel.events_in("engine.instr")
                if event.name.startswith("superop.")
            ]
            superops = [s for p in compiled.programs for s in p.superops]
            runs[name] = (superops, spans)
        return runs

    def test_every_superop_dispatched_once(self, dispatched):
        for name, (superops, spans) in dispatched.items():
            assert len(spans) == len(superops), name

    def test_all_kinds_run_batched(self, dispatched):
        kinds = {
            span.split(".")[1].split("[")[0]
            for _, spans in dispatched.values() for span in spans
        }
        assert kinds == SUPEROP_KINDS

    def test_softmax_fc_block_runs_batched(self, dispatched):
        softmax = ACT_CODES[Activation.SOFTMAX]
        found = [
            sup for superops, _ in dispatched.values() for sup in superops
            if sup.kind == "fc_block"
            and dict(sup.params)["fn_type"] == softmax
        ]
        assert found


class TestStreamedReports:
    def test_each_streamed_report_equals_run(self, case):
        """A persistent runner restarts its counters per image: every
        streamed image reports exactly what a fresh run() reports."""
        runner = case.compiled.runner()
        for image in case.images:
            out, report = runner(image)
            expected_out, expected = case.compiled.run(image)
            assert report == expected, case.name
            assert np.array_equal(out, expected_out), case.name


def _faults(rate=0.5, seed=7):
    return types.SimpleNamespace(
        dma_flip_rate=rate, spec=types.SimpleNamespace(seed=seed)
    )


def _run_with_faults(compiled, image):
    """CompiledForward.run, but with a fault-injecting engine."""
    machine = compiled.build_machine()
    for home in compiled.partition.blocks_of(compiled.network.input.name):
        tile = machine.mem_tile(machine.mem_tile_id(0, home.row))
        tile.write(
            home.address,
            image[
                home.first_feature
                : home.first_feature + home.feature_count
            ],
            accumulate=False,
        )
    engine = Engine(machine, faults=_faults())
    report = engine.run()
    out_col = compiled.partition.column_of[compiled.network.output.name]
    out = np.concatenate([
        machine.mem_tile(machine.mem_tile_id(out_col, home.row))
        .read(home.address, home.feature_count * home.feature_words)
        .copy()
        for home in compiled.output_blocks
    ])
    return out, report, engine.dma_flips


class TestFaultInteraction:
    def test_dma_flip_stream_matches_frozen_stream(self):
        """The DMA kernels draw fault flips from the seeded RNG stream
        in the per-round interpreter's order: a faulty run reproduces
        its flip count, report and output bits."""
        net = tiny_cnn(num_classes=4, in_size=8)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        out, report, flips = _run_with_faults(compiled, _image(net))
        assert (flips, _sha256(out), report) == FROZEN_FLIPS

    def test_make_batch_rejects_dma_faults(self):
        machine = Machine(conv_chip(), 1, 1)
        engine = Engine(machine, faults=_faults())
        with pytest.raises(SimulationError):
            engine.make_batch(2)

    def test_make_batch_rejects_empty(self):
        engine = Engine(Machine(conv_chip(), 1, 1))
        with pytest.raises(SimulationError):
            engine.make_batch(0)


INDIRECT_DMA = """
LDRI rd=2, value=10
DMALOAD src_addr=r2, src_port=0, dst_addr=0, dst_port=1, size=2, is_accum=0
HALT
"""


class TestRegisterIndirectFallback:
    def _machine(self):
        m = Machine(conv_chip(), 3, 1)
        m.mem_tile(0).write(
            10, np.array([7.0, 8.0], np.float32), False
        )
        m.load_program(assemble(INDIRECT_DMA, tile="t"))
        return m

    def test_fast_mode_falls_back(self):
        """Register-indirect data ops resolve their registers at issue,
        run the decoded kernel of the resolved instruction and still
        produce the right answer."""
        m = self._machine()
        Engine(m).run()
        assert m.mem_tile(1).read(0, 2).tolist() == [7.0, 8.0]

    def test_batch_mode_refuses_indirect_data_ops(self):
        """A batched run cannot take the single-image fallback for data
        instructions: it must refuse loudly, not corrupt the batch."""
        m = self._machine()
        engine = Engine(m)
        engine.make_batch(2)
        with pytest.raises(SimulationError, match="single-image"):
            engine.run()


class TestSpeedup:
    def test_batched_path_beats_unfused(self):
        """The headline claim, smoke-tested conservatively: batched
        execution amortises to well under the unfused per-instruction
        per-image cost (full measurement lives in `repro validate`)."""
        from repro.sim.validation import measure_speedup

        result = measure_speedup(lenet5(), batch=8, repeats=2)
        assert result.fast_seconds / result.batch_seconds > 2.0, (
            result.describe()
        )
        assert result.describe().startswith("LeNet-5")
