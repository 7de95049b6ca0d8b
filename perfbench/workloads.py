"""The four benchmark workloads, driven through the program's public API.

Each workload has a set-up (repeated for the ``setup_s`` median), a
timed pass (repeated while the run's seconds last) and a check phase
that verifies every output.  Correctness is counted per operation
(:class:`Op`): a validated network row, a streamed or batched image, a
serving run, and — in traced runs — a pass-by-pass compile.

* ``validate-engine``: ``validate_zoo`` over GoogLeNet, OF-Fast and
  LeNet-5 with ``speedup=False`` and a cold compile cache.
* ``engine-stream``: OF-Fast and ResNet18 engine proxies compiled at
  set-up; seeded images streamed through the fused persistent runner,
  then the same images through ``run_batch``.
* ``serve-steady``: ``simulate_serving`` of GoogLeNet, ResNet34 and
  AlexNet on the SP node, Poisson arrivals at 90% of the placement's
  saturation, ``wait`` batching.
* ``serve-chaos``: the same traffic under an MTBF/MTTR tile-slow fault
  process with a deadline, one retry and hedging.

Traced runs (``--trace 1``) record a span around each call into a
layer, wrapping the calls the program makes internally (those of
``validate_zoo`` and ``simulate_serving``) for the length of the pass;
every engine compile then drives the compiler's pass objects one by one
(:func:`traced_compile`).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from contextlib import ExitStack
from unittest import mock
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.compiler.pipeline as pipeline_mod
import repro.serve.simulator as simulator_mod
import repro.sim.perf as perf_mod
import repro.sim.validation as validation
import repro.sweep.cache as cache_mod
from repro.arch.presets import conv_chip, single_precision_node
from repro.compiler.codegen import CompiledForward
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.ir import Phase, build_tile_ir
from repro.compiler.partition import partition_graph
from repro.compiler.passes.fuse import FusePass
from repro.compiler.passes.legalize import LegalizePass, check_dag_scope
from repro.compiler.passes.lower import LowerPass
from repro.compiler.passes.manager import PassContext, PassStats
from repro.compiler.passes.place_check import PlaceCheckPass
from repro.compiler.passes.schedule import SchedulePass
from repro.compiler.passes.tracker_assign import TrackerAssignPass
from repro.compiler.pipeline import compile_network
from repro.compiler.trackers import calibrate_trackers
from repro.compiler.verifier import assert_ir_verified
from repro.dnn import zoo
from repro.dnn.zoo.engine_proxies import PROXY_PARAMS, engine_proxy
from repro.functional.reference import ReferenceModel
from repro.isa.program import Program
from repro.serve import (
    BatchPolicy,
    FailureConfig,
    ServeConfig,
    place_networks,
    simulate_serving,
)
from repro.sim.perf import DEFAULT_MINIBATCH, simulate
from repro.sweep.cache import CompileCache, set_cache

from tracer import Tracer, spy

#: Networks of ``repro validate GoogLeNet OF-Fast LeNet-5 --no-speedup``.
VALIDATE_NETS = ("GoogLeNet", "OF-Fast", "LeNet-5")
#: Engine proxies streamed by ``engine-stream``.
STREAM_NETS = ("OF-Fast", "ResNet18")
#: Images streamed per network per pass; also the ``run_batch`` size.
STREAM_BATCH = 16
#: Tenants co-served by both serve workloads.
SERVE_NETS = ("GoogLeNet", "ResNet34", "AlexNet")
#: Requests per serving run.
SERVE_REQUESTS = 120_000
#: Offered load as a share of the placement's analytical saturation.
SERVE_LOAD = 0.9
#: The batcher's size cap (``wait`` policy, 2 ms max wait).
SERVE_MAX_BATCH = 8
#: The chaos traffic: fault process and request robustness knobs.
#: Arrivals are frequent enough that every seed reaches the fault cap
#: early in the window, so each run recompiles about as often.
CHAOS_MTBF_S = 0.3
CHAOS_MTTR_S = 0.03
CHAOS_MAX_FAULTS = 5
CHAOS_TIMEOUT_S = 0.025
CHAOS_HEDGE_S = 0.008
CHAOS_RETRIES = 1


@dataclass
class Op:
    """One checked operation: ``ok`` is False when its output is wrong."""

    name: str
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def seeded_images(net, seed, count: int) -> np.ndarray:
    """``count`` Normal(0, 1) float32 images for ``net``'s input."""
    shape = net.input.output_shape
    dims = (count, shape.count, shape.height, shape.width)
    return np.random.default_rng(seed).normal(0, 1, dims).astype(np.float32)


def traced_compile(
    net, model, tracer: Tracer, rows: int = 2
) -> Tuple[CompiledForward, Dict[str, float]]:
    """Compile ``net`` as ``compile_dag_forward`` does, driving each
    pass object by hand with a span around it and around the IR
    verification that follows it.  ``compiler.calibrate`` is
    ``calibrate_trackers`` on copies of the lowered programs: the access
    scan the lower pass ends with, repeated to time it."""
    chip = conv_chip()
    with tracer.span("compiler.partition"):
        check_dag_scope(net)
        partition = partition_graph(
            net, rows, chip.mem_tile.capacity_bytes // 4
        )
    with tracer.span("compiler.build_ir"):
        ir = build_tile_ir(net, partition, rows, phases=(Phase.FP,))
    ctx = PassContext(
        net=net, model=model, chip=chip, partition=partition, rows=rows,
        dialect="calibrated",
    )
    passes = [
        LegalizePass("dag"), PlaceCheckPass(), TrackerAssignPass(),
        SchedulePass(), LowerPass(align=True), FusePass(),
    ]
    all_stats: List[PassStats] = []
    trackers, recalibrated = 0, False
    for compiler_pass in passes:
        stats = PassStats(
            compiler_pass.name, len(ir.ops), len(ir.ops),
            len(ir.edges), len(ir.edges),
        )
        name = compiler_pass.name.replace("-", "_")
        with tracer.span(f"compiler.{name}"):
            ir = compiler_pass.run(ir, ctx, stats) or ir
        stats.ops_after, stats.edges_after = len(ir.ops), len(ir.edges)
        all_stats.append(stats)
        if compiler_pass.name == "lower":
            # Re-running the calibration scan on copies must find the
            # counts the lower pass already wrote.
            clones = [
                Program(p.tile, list(p.instructions), p.superops)
                for p in ctx.programs
            ]
            with tracer.span("compiler.calibrate"):
                trackers = calibrate_trackers(clones)
            recalibrated = clones == ctx.programs
        with tracer.span("compiler.ir_verify"):
            assert_ir_verified(ir, ctx.machine_shape())
    compiled = CompiledForward(
        network=net, chip=chip, rows=rows, partition=partition,
        programs=ctx.programs, preloads=ctx.preloads,
        output_blocks=partition.blocks_of(net.output.name),
        ir=ir, pass_stats=all_stats,
    )
    with tracer.span("compiler.verify"):
        compiled.verify()
    fuse_notes = all_stats[-1].notes
    info = {
        "instructions": compiled.instruction_count,
        "trackers": trackers,
        "recalibrated": recalibrated,
        "superops": fuse_notes.get("superops", 0),
        "fused_instructions": fuse_notes.get("fused_instructions", 0),
    }
    return compiled, info


def compile_op(name: str, traced: CompiledForward, info: Dict[str, float],
               reference: CompiledForward) -> Op:
    """The pass-by-pass compile must equal ``compile_dag_forward``'s,
    program for program (superop plans included), and re-running the
    tracker calibration must leave the lowered programs unchanged."""
    same = traced.programs == reference.programs
    ok = same and info["recalibrated"]
    detail = "" if ok else (
        f"programs equal={same}, "
        f"recalibration stable={info['recalibrated']}"
    )
    return Op(f"compile/{name}", ok, detail)


def output_op(name: str, out: np.ndarray, expected: np.ndarray) -> Op:
    """Engine output within ``MAX_OUTPUT_ERROR`` of the golden model."""
    expected = expected.reshape(-1)
    if out.shape != expected.shape:
        return Op(name, False, f"shape {out.shape} != {expected.shape}")
    error = float(np.abs(out - expected).max())
    ok = error <= validation.MAX_OUTPUT_ERROR
    return Op(name, ok, "" if ok else f"max abs error {error:.3g}")


def engine_counts(unfused, fused) -> Dict[str, int]:
    """Simulated counts of one network's run (unfused makespan terms,
    as ``validate`` reports them, plus the fused makespan)."""
    return {
        "instructions": unfused.instructions,
        "cycles": unfused.cycles,
        "fused_cycles": fused.cycles,
        "busy_cycles": unfused.busy_cycles,
        "rounds": unfused.rounds,
        "blocked_reads": unfused.blocked_reads,
        "blocked_writes": unfused.blocked_writes,
    }


class Workload:
    """Set-up, timed pass and check of one workload."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.traced = tracer.enabled
        self.compile_times: List[float] = []  # cold compile seconds

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> List[Op]:
        raise NotImplementedError

    def check(self) -> List[Op]:
        return []

    def compile_s(self) -> float:
        return statistics.median(self.compile_times)

    def layer_metrics(self, pass_seconds: List[float]) -> Dict[str, float]:
        """Per-layer figures of a traced run with these pass times."""
        return {}

    def samples(self) -> Dict[str, object]:
        """Raw timings kept in the run's record file."""
        return {"compile_s": self.compile_times}

    def _compile_layer_metrics(self, infos, passes: int) -> Dict[str, float]:
        tracer = self.tracer
        out = {
            f"compiler.{name}_s": tracer.seconds(f"compiler.{name}", passes)
            for name in (
                "partition", "build_ir", "legalize", "place_check",
                "tracker_assign", "schedule", "lower", "calibrate",
                "fuse", "ir_verify", "verify",
            )
        }
        out["compiler.lower_self_s"] = (
            out["compiler.lower_s"] - out["compiler.calibrate_s"]
        )
        instructions = sum(i["instructions"] for i in infos)
        out["compiler.instructions"] = instructions
        out["compiler.trackers"] = sum(i["trackers"] for i in infos)
        out["compiler.superops"] = sum(i["superops"] for i in infos)
        out["compiler.fused_coverage"] = (
            sum(i["fused_instructions"] for i in infos) / instructions
            if instructions else 0.0
        )
        return out


# ----------------------------------------------------------------------
# validate-engine
# ----------------------------------------------------------------------
class ValidateEngine(Workload):
    name = "validate-engine"

    def setup(self) -> None:
        """Build the zoo networks, their engine proxies and the
        proxies' reference weights, as ``validate_zoo`` will."""
        with self.tracer.span("dnn.build"):
            nets = [zoo.load(zoo.resolve(name)) for name in VALIDATE_NETS]
            nets = [
                engine_proxy(net.name) if net.name in PROXY_PARAMS else net
                for net in nets
            ]
        with self.tracer.span("functional.reference_model"):
            for net in nets:
                ReferenceModel(net, seed=self.seed)
        self.compiles: List[tuple] = []  # traced: (net, model, rows, ...)
        self.runs: List[tuple] = []  # traced: (fused, report) per run
        self.rows: List[validation.ValidationRow] = []
        self.rank = 0.0

    def run_pass(self, index: int) -> List[Op]:
        set_cache(CompileCache())
        with ExitStack() as stack:
            if self.traced:
                self._trace_calls(stack)
            compile_span = stack.enter_context(spy(
                self.tracer, validation, "compile_dag_forward",
                "compiler.compile_dag_forward",
            ))
            with self.tracer.span("validation.validate_zoo"):
                report = validation.validate_zoo(
                    list(VALIDATE_NETS), speedup=False, seed=self.seed
                )
        self.compile_times.append(compile_span.seconds)
        self.rows = report.rows
        self.rank = report.rank
        return [self._row_op(row) for row in report.rows]

    def _trace_calls(self, stack: ExitStack) -> None:
        """Wrap the calls ``validate_zoo`` makes in spans for the
        length of the pass; its compiles run pass by pass."""
        tracer = self.tracer
        for module, attr, name in (
            (zoo, "load", "dnn.build"),
            (validation, "engine_proxy", "dnn.build"),
            (validation, "ReferenceModel", "functional.reference_model"),
            (ReferenceModel, "forward", "functional.reference_forward"),
            (validation, "analytical_forward_cycles",
             "validation.analytical"),
        ):
            stack.enter_context(spy(tracer, module, attr, name))

        def compile_in_passes(net, model, rows=2):
            compiled, info = traced_compile(net, model, tracer, rows)
            self.compiles.append((net, model, rows, compiled, info))
            return compiled

        run = CompiledForward.run

        def run_in_span(compiled, image, *args, **kwargs):
            fused = kwargs.get("fused", args[1] if len(args) > 1 else True)
            name = "engine.run_fused" if fused else "engine.run_unfused"
            with tracer.span(name):
                out, report = run(compiled, image, *args, **kwargs)
            self.runs.append((fused, report))
            return out, report

        stack.enter_context(mock.patch.object(
            validation, "compile_dag_forward", compile_in_passes))
        stack.enter_context(mock.patch.object(
            CompiledForward, "run", run_in_span))

    @staticmethod
    def _row_op(row) -> Op:
        problems = []
        if row.status != "ok":
            problems.append(f"status {row.status}: {row.reason}")
        if not row.max_abs_error <= validation.MAX_OUTPUT_ERROR:
            problems.append(f"max abs error {row.max_abs_error:.3g}")
        if not row.fused_identical:
            problems.append("fused outputs differ from unfused")
        if not row.band.contains(row.ratio):
            problems.append(
                f"cycle ratio {row.ratio:.3f} outside "
                f"{row.band.describe()}"
            )
        return Op(f"validate/{row.network}", not problems,
                  "; ".join(problems))

    def check(self) -> List[Op]:
        ops = []
        for net, model, rows, compiled, info in self.compiles:
            reference = compile_dag_forward(net, model, rows=rows)
            ops.append(compile_op(net.name, compiled, info, reference))
        return ops

    def layer_metrics(self, pass_seconds: List[float]) -> Dict[str, float]:
        tracer = self.tracer
        passes = len(pass_seconds)
        metrics = self._compile_layer_metrics(
            [c[4] for c in self.compiles[:len(VALIDATE_NETS)]], passes
        )
        metrics.update({
            "dnn.build_s": tracer.seconds("dnn.build", passes),
            "functional.reference_model_s": tracer.seconds(
                "functional.reference_model", passes),
            "functional.reference_forward_s": tracer.seconds(
                "functional.reference_forward", passes),
            "validation.analytical_s": tracer.seconds(
                "validation.analytical", passes),
            "validation.rank_agreement": self.rank,
            "engine.run_fused_s": tracer.seconds("engine.run_fused", passes),
            "engine.run_unfused_s": tracer.seconds(
                "engine.run_unfused", passes),
        })
        # validate_zoo runs each network fused, then unfused.
        runs = self.runs[:2 * len(self.rows)]
        instructions = sum(report.instructions for fused, report in runs
                           if fused)
        seconds = tracer.total_s["pass"].get("engine.run_fused", 0.0)
        metrics["engine.sim_instr_per_s"] = (
            instructions * passes / seconds if seconds else 0.0
        )
        for k, row in enumerate(self.rows):
            (_, fused), (_, unfused) = runs[2 * k], runs[2 * k + 1]
            for key, value in engine_counts(unfused, fused).items():
                metrics[f"engine.{row.network}.{key}"] = value
        return metrics


# ----------------------------------------------------------------------
# engine-stream
# ----------------------------------------------------------------------
@dataclass
class _Stream:
    """One compiled engine proxy and what streaming it produced."""

    name: str
    net: object
    model: ReferenceModel
    compiled: CompiledForward
    info: Optional[Dict[str, float]] = None  # traced compile facts
    runner: object = None
    first: Optional[tuple] = None  # (image, output, report, seconds)
    build_s: float = 0.0  # ``runner()``: machine build
    steady_s: List[float] = field(default_factory=list)  # per image
    batch_s: List[float] = field(default_factory=list)  # per run_batch
    streamed: List[tuple] = field(default_factory=list)  # (image, out)
    batched: List[tuple] = field(default_factory=list)  # (images, outs)


class EngineStream(Workload):
    name = "engine-stream"
    setup_repeats = 3

    def setup(self) -> None:
        set_cache(CompileCache())
        tracer = self.tracer
        streams = []
        compile_seconds = 0.0
        for name in STREAM_NETS:
            with tracer.span("dnn.build"):
                net = engine_proxy(name)
            with tracer.span("functional.reference_model"):
                model = ReferenceModel(net, seed=self.seed)
            info = None
            with tracer.span("bench.compile") as compile_span:
                if self.traced:
                    compiled, info = traced_compile(net, model, tracer)
                else:
                    compiled = compile_dag_forward(net, model)
            compile_seconds += compile_span.seconds
            streams.append(_Stream(name, net, model, compiled, info))
        self.compile_times.append(compile_seconds)
        self.streams = streams

    def run_pass(self, index: int) -> List[Op]:
        tracer = self.tracer
        for position, stream in enumerate(self.streams):
            with tracer.span("bench.inputs"):
                images = seeded_images(
                    stream.net, (self.seed, index, position), STREAM_BATCH
                )
            todo = list(images)
            if stream.runner is None:
                with tracer.span("engine.build_machine") as build:
                    stream.runner = stream.compiled.runner()
                with tracer.span("engine.first_run") as first:
                    out, report = stream.runner(todo[0])
                stream.build_s = build.seconds
                stream.first = (todo.pop(0), out, report, first.seconds)
            for image in todo:
                with tracer.span("engine.run_fused") as run:
                    out, _ = stream.runner(image)
                stream.steady_s.append(run.seconds)
                stream.streamed.append((image, out))
            with tracer.span("engine.run_batch") as run:
                outputs, _ = stream.compiled.run_batch(images)
            stream.batch_s.append(run.seconds)
            stream.batched.append((images, outputs))
        return []

    def check(self) -> List[Op]:
        """Every streamed and batched image against the numpy golden
        model; each network's first image also bit for bit against
        ``run(fused=False)``; traced compiles against
        ``compile_dag_forward``."""
        tracer = self.tracer
        ops: List[Op] = []
        self.counts: Dict[str, Dict[str, int]] = {}
        for stream in self.streams:
            image, out, fused, _ = stream.first
            with tracer.span("engine.run_unfused"):
                unfused_out, unfused = stream.compiled.run(
                    image, fused=False
                )
            self.counts[stream.name] = engine_counts(unfused, fused)
            first = output_op(
                f"first/{stream.name}", out, stream.model.forward(image)
            )
            if first.ok and not np.array_equal(out, unfused_out):
                first = Op(first.name, False,
                           "fused first image differs from unfused run")
            ops.append(first)
            for k, (image, out) in enumerate(stream.streamed):
                ops.append(output_op(
                    f"stream/{stream.name}/{k}", out,
                    stream.model.forward(image),
                ))
            for images, outputs in stream.batched:
                for k, image in enumerate(images):
                    ops.append(output_op(
                        f"batch/{stream.name}/{k}", outputs[k],
                        stream.model.forward(image),
                    ))
            if stream.info is not None:
                reference = compile_dag_forward(stream.net, stream.model)
                ops.append(compile_op(
                    stream.name, stream.compiled, stream.info, reference
                ))
        return ops

    def samples(self) -> Dict[str, object]:
        out = super().samples()
        for stream in self.streams:
            out[stream.name] = {
                "build_s": stream.build_s, "first_s": stream.first[3],
                "steady_s": stream.steady_s, "batch_s": stream.batch_s,
            }
        return out

    def layer_metrics(self, pass_seconds: List[float]) -> Dict[str, float]:
        tracer = self.tracer
        passes = len(pass_seconds)
        streams = self.streams
        metrics = self._compile_layer_metrics(
            [s.info for s in streams if s.info is not None], passes
        )
        steady = [statistics.median(s.steady_s) for s in streams]
        batch = [statistics.median(s.batch_s) for s in streams]
        first = [s.build_s + s.first[3] for s in streams]
        metrics.update({
            "dnn.build_s": tracer.seconds("dnn.build", passes),
            "functional.reference_model_s": tracer.seconds(
                "functional.reference_model", passes),
            "engine.build_machine_s": sum(s.build_s for s in streams),
            "engine.first_img_s": sum(first),
            "engine.decode_s": sum(
                s.first[3] - median for s, median in zip(streams, steady)
            ),
            "engine.run_fused_s": tracer.seconds("engine.run_fused", passes),
            "engine.run_unfused_s": tracer.seconds(
                "engine.run_unfused", passes),
            "engine.run_batch_s": tracer.seconds("engine.run_batch", passes),
            "engine.fused_img_per_s": len(streams) / sum(steady),
            "engine.batched_img_per_s": (
                STREAM_BATCH * len(streams) / sum(batch)
            ),
        })
        instructions = 0
        seconds = 0.0
        for stream in streams:
            per_image = stream.compiled.instruction_count
            instructions += per_image * (
                len(stream.steady_s) + STREAM_BATCH * len(stream.batch_s)
            )
            seconds += sum(stream.steady_s) + sum(stream.batch_s)
        metrics["engine.sim_instr_per_s"] = instructions / seconds
        for net, counts in self.counts.items():
            for key, value in counts.items():
                metrics[f"engine.{net}.{key}"] = value
        return metrics


# ----------------------------------------------------------------------
# serve-steady / serve-chaos
# ----------------------------------------------------------------------
class ServeSteady(Workload):
    name = "serve-steady"
    chaos = False
    #: Set-up is about 0.1 s; more repeats steady the 30 ms compile_s.
    setup_repeats = 15

    def setup(self) -> None:
        set_cache(CompileCache())
        tracer = self.tracer
        node = single_precision_node()
        with tracer.span("dnn.build"):
            nets = [zoo.load(zoo.resolve(name)) for name in SERVE_NETS]
        with tracer.span("compiler.compile_network") as compile_span:
            compiled = [compile_network(net, node) for net in nets]
        self.compile_times.append(compile_span.seconds)
        with tracer.span("perf.simulate"):
            results = [
                simulate(net, node, DEFAULT_MINIBATCH, mapping=c.mapping)
                for net, c in zip(nets, compiled)
            ]
        with tracer.span("serve.place"):
            placement = place_networks(nets, node, results=results)
        # Each tenant is offered SERVE_LOAD of its own saturation rate,
        # so the batcher completes most requests.
        saturation = [
            t.saturation_qps(SERVE_MAX_BATCH) for t in placement.tenants
        ]
        qps = SERVE_LOAD * sum(saturation)
        chaos = {}
        if self.chaos:
            chaos = dict(
                failures=FailureConfig(
                    mtbf_s=CHAOS_MTBF_S, mttr_s=CHAOS_MTTR_S,
                    seed=self.seed, max_faults=CHAOS_MAX_FAULTS,
                ),
                timeout_s=CHAOS_TIMEOUT_S,
                retries=CHAOS_RETRIES,
                hedge_s=CHAOS_HEDGE_S,
            )
        self.config = ServeConfig(
            qps=qps,
            # Long enough that the request cap, not the window, ends
            # the stream: every run offers exactly SERVE_REQUESTS.
            duration_s=1.1 * SERVE_REQUESTS / qps,
            seed=self.seed,
            policy=BatchPolicy(kind="wait", max_batch=SERVE_MAX_BATCH),
            weights=tuple(saturation),
            max_requests=SERVE_REQUESTS,
            **chaos,
        )
        self.nets, self.node, self.placement = nets, node, placement
        self.reports: List[tuple] = []  # (report, snapshot)

    def run_pass(self, index: int) -> List[Op]:
        tracer = self.tracer
        with ExitStack() as stack:
            if self.traced:
                for module, attr, name in (
                    (simulator_mod, "generate_requests", "serve.generate"),
                    (simulator_mod, "FailureLifecycle",
                     "serve.lifecycle_build"),
                    (pipeline_mod, "compile_network",
                     "compiler.compile_network"),
                    (perf_mod, "simulate", "perf.simulate"),
                    (cache_mod, "simulate", "perf.simulate"),
                ):
                    stack.enter_context(spy(tracer, module, attr, name))
            if self.chaos:
                # Each chaos run is a cold ``repro chaos``: the fault
                # lifecycle compiles the healthy and degraded services.
                set_cache(CompileCache())
                placement = None
            else:
                placement = self.placement
            with tracer.span("serve.simulate"):
                report = simulate_serving(
                    self.nets, self.node, self.config, placement=placement
                )
            with tracer.span("serve.report"):
                snapshot = report.to_dict()
        self.reports.append((report, snapshot))
        return []

    def check(self) -> List[Op]:
        """Per-tenant outcome conservation, and every run's report
        digest equal to the first run's."""
        ops = []
        first = None
        for index, (report, snapshot) in enumerate(self.reports):
            digest = hashlib.sha256(
                json.dumps(snapshot, sort_keys=True).encode()
            ).hexdigest()
            first = first or digest
            problems = []
            for row in report.rows():
                total = (row["completed"] + row["shed"]
                         + row["timed_out"] + row["failed"])
                if row["offered"] != total:
                    problems.append(
                        f"{row['network']}: offered {row['offered']} != "
                        f"outcomes {total}"
                    )
            if digest != first:
                problems.append("report differs from the first run's")
            ops.append(Op(f"serve/{index}", not problems,
                          "; ".join(problems)))
        return ops

    def layer_metrics(self, pass_seconds: List[float]) -> Dict[str, float]:
        tracer = self.tracer
        passes = len(pass_seconds)
        report = self.reports[0][0]
        rows = report.rows()
        latency = report.node_latency_ms()
        pass_s = statistics.median(pass_seconds)
        metrics = {
            "dnn.build_s": tracer.seconds("dnn.build", passes),
            "compiler.compile_network_s": tracer.seconds(
                "compiler.compile_network", passes),
            "perf.simulate_s": tracer.seconds("perf.simulate", passes),
            "serve.place_s": tracer.seconds("serve.place", passes),
            "serve.lifecycle_build_s": tracer.seconds(
                "serve.lifecycle_build", passes, own=True),
            "serve.generate_s": tracer.seconds("serve.generate", passes),
            "serve.loop_s": tracer.seconds(
                "serve.simulate", passes, own=True),
            "serve.report_s": tracer.seconds("serve.report", passes),
            "serve.req_per_s": report.offered / pass_s,
            "serve.offered": report.offered,
            "serve.completed": report.completed,
            "serve.shed": report.shed,
            "serve.timed_out": report.timed_out,
            "serve.failed": report.failed,
            "serve.retries": sum(row["retries"] for row in rows),
            "serve.hedges": sum(row["hedges"] for row in rows),
            "serve.fault_events": len(report.fault_events),
            "serve.goodput_frac": report.completed / report.offered,
            "serve.p50_ms": latency.percentile(50),
            "serve.p99_ms": latency.percentile(99),
        }
        return metrics


class ServeChaos(ServeSteady):
    name = "serve-chaos"
    chaos = True


WORKLOADS = {
    cls.name: cls
    for cls in (ValidateEngine, EngineStream, ServeSteady, ServeChaos)
}
