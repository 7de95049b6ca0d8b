"""Fast-path equivalence: the pre-decoded engine vs the legacy interpreter.

The fast path decodes each tile's program once into a flat op table and
the batched path vectorises the decoded ops — by default the superops —
across a minibatch; both must be observationally identical to the
legacy per-round interpreter — same outputs (bit-for-bit except the
unfused batched kernels), same RunReport, same fault behaviour.  These
tests pin that contract per small zoo network.
"""

import gc
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
from repro.sim.engine import ACT_CODES, Engine
from repro.sim.machine import Machine

NETS = {
    "TinyMLP": lambda: tiny_mlp(num_classes=4, in_features=8, hidden=12),
    "TinyCNN-8": lambda: tiny_cnn(num_classes=4, in_size=8),
    "TinyCNN-16": lambda: tiny_cnn(num_classes=4, in_size=16),
    "LeNet-5": lenet5,
}

BATCH = 3


def _image(net, seed=0):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


@pytest.fixture(scope="module", params=sorted(NETS))
def case(request):
    """One compiled network with legacy, fast, fused and batched runs."""
    net = NETS[request.param]()
    model = ReferenceModel(net, seed=0)
    compiled = compile_dag_forward(net, model, rows=2)
    image = _image(net)
    slow_out, slow_report = compiled.run(image, fast=False)
    fast_out, fast_report = compiled.run(image, fast=True, fused=False)
    fused_out, fused_report = compiled.run(image, fast=True, fused=True)
    images = np.stack([_image(net, seed=i) for i in range(BATCH)])
    batch_out, batch_report = compiled.run_batch(images)
    unfused_batch_out, unfused_batch_report = compiled.run_batch(
        images, fused=False
    )
    per_image = [compiled.run(img, fast=False)[0] for img in images]
    fused_per_image = [compiled.run(img) for img in images]
    return types.SimpleNamespace(
        name=request.param, net=net, compiled=compiled,
        slow_out=slow_out, slow_report=slow_report,
        fast_out=fast_out, fast_report=fast_report,
        fused_out=fused_out, fused_report=fused_report,
        images=images, batch_out=batch_out, batch_report=batch_report,
        unfused_batch_out=unfused_batch_out,
        unfused_batch_report=unfused_batch_report,
        per_image=per_image, fused_per_image=fused_per_image,
    )


class TestFastPathEquivalence:
    def test_outputs_bit_identical(self, case):
        """The fast closures replay the legacy numpy calls exactly, so
        single-image outputs match bit for bit — not just approximately."""
        assert np.array_equal(case.fast_out, case.slow_out), case.name

    def test_reports_identical(self, case):
        assert case.fast_report == case.slow_report, case.name

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
            compiled.run(_image(net), fast=True, fused=False)
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks, "expected at least the HALT scalar fallbacks"
        assert all(":" in key for key in fallbacks)
        assert any(key.endswith(":scalar-control") for key in fallbacks)

    def test_unexpected_decode_error_surfaces(self, monkeypatch):
        """Only the legacy interpreter's own error types may fall back;
        an unexpected exception is an engine bug and must propagate
        (the old bare ``except Exception`` swallowed it)."""
        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))

        def boom(self, instr, tile_id):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(Engine, "_decode_data", boom)
        with pytest.raises(RuntimeError, match="engine bug"):
            compiled.run(_image(net), fast=True, fused=False)


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

    def test_unfused_batch_outputs_match_legacy_per_image(self, case):
        """The per-instruction batched kernels agree with the legacy
        interpreter within float32 reduction-order noise."""
        for i, expected in enumerate(case.per_image):
            np.testing.assert_allclose(
                case.unfused_batch_out[i], expected, rtol=0, atol=1e-5,
                err_msg=f"{case.name} image {i}",
            )

    def test_batch_outputs_match_legacy_per_image(self, case):
        """Batched outputs agree with running each image through the
        legacy interpreter (within float32 BLAS reduction-order noise)."""
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


def _run_with_faults(compiled, image, fast):
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
    engine = Engine(machine, faults=_faults(), fast=fast)
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
    def test_dma_flip_stream_identical_fast_vs_legacy(self):
        """The fast path draws DMA fault flips from the same RNG stream
        in the same order, so a faulty run is bit-identical either way."""
        net = tiny_cnn(num_classes=4, in_size=8)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        image = _image(net)
        slow_out, slow_report, slow_flips = _run_with_faults(
            compiled, image, fast=False
        )
        fast_out, fast_report, fast_flips = _run_with_faults(
            compiled, image, fast=True
        )
        assert slow_flips == fast_flips > 0
        assert fast_report == slow_report
        assert np.array_equal(fast_out, slow_out)

    def test_make_batch_rejects_dma_faults(self):
        machine = Machine(conv_chip(), 1, 1)
        engine = Engine(machine, faults=_faults())
        with pytest.raises(SimulationError):
            engine.make_batch(2)

    def test_make_batch_requires_fast(self):
        engine = Engine(Machine(conv_chip(), 1, 1), fast=False)
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
        """Register-indirect data ops run through the legacy interpreter
        inside a fast-mode run and still produce the right answer."""
        m = self._machine()
        Engine(m, fast=True).run()
        assert m.mem_tile(1).read(0, 2).tolist() == [7.0, 8.0]

    def test_batch_mode_refuses_indirect_data_ops(self):
        """A batched run cannot take the single-image fallback for data
        instructions: it must refuse loudly, not corrupt the batch."""
        m = self._machine()
        engine = Engine(m, fast=True)
        engine.make_batch(2)
        with pytest.raises(SimulationError, match="single-image"):
            engine.run()


class TestSpeedup:
    def test_batched_path_beats_legacy(self):
        """The headline claim, smoke-tested conservatively: batched
        execution amortises to well under the legacy per-image cost
        (full measurement lives in `repro validate`)."""
        from repro.sim.validation import measure_speedup

        result = measure_speedup(lenet5(), batch=8, repeats=2)
        assert result.batch_speedup > 2.0, result.describe()
        assert result.describe().startswith("LeNet-5")
