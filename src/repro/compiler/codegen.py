"""Code generation: compile a network's forward pass to ISA programs.

This is the engine-facing half of the compiler (the paper's phase B,
Fig 13): given a sequential network and a parameterised reference model,
it emits one ScaleDeep program per CompHeavy tile, arranges the memory
image (home feature blocks, staged inputs, kernels, biases), and arms
the MEMTRACK trackers that synchronise producers with consumers.

Since the IR refactor the emission itself lives in the pass pipeline
(:mod:`repro.compiler.passes`): this module builds the tile-level IR
for the partition, drives ``legalize -> place-check -> tracker-assign
-> schedule -> lower`` in the sequential exact-tracker dialect, and
wraps the emitted programs in :class:`CompiledForward`.  The generated
code follows the CONV-layer-FP recipe of Fig 9, every address resolved
statically (the data flow of a DNN is known at compile time — the
property the whole synchronization scheme rests on), so loops are
unrolled.

Scope: forward propagation of sequential networks without grouped
convolutions or pooling padding — enough to run the tiny zoo networks
end-to-end and validate the engine against the numpy golden model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.chip import ChipConfig
from repro.arch.presets import conv_chip
from repro.compiler.ir import MappingIR, Phase, build_tile_ir
from repro.compiler.partition import (
    FeatureHome,
    StatePartition,
    partition_sequential,
)
from repro.compiler.passes.fuse import FusePass
from repro.compiler.passes.legalize import LegalizePass
from repro.compiler.passes.lower import LowerPass
from repro.compiler.passes.manager import (
    PassContext,
    PassManager,
    PassStats,
)
from repro.compiler.passes.place_check import PlaceCheckPass
from repro.compiler.passes.schedule import SchedulePass
from repro.compiler.passes.tracker_assign import TrackerAssignPass
from repro.compiler.templates import Preload, align_prologues
from repro.dnn.network import Network
from repro.errors import MappingError, SimulationError
from repro.functional.reference import ReferenceModel
from repro.isa.program import Program
from repro.sim.engine import Engine, RunReport
from repro.sim.machine import Machine

#: Historic name; the dataclass now lives with the shared emission
#: helpers in :mod:`repro.compiler.templates`.
_Preload = Preload


@dataclass
class CompiledForward:
    """Programs plus the recipe to build a fresh machine for each run."""

    network: Network
    chip: ChipConfig
    rows: int
    partition: StatePartition
    programs: List[Program]
    preloads: List[_Preload]
    output_blocks: List[FeatureHome]
    #: The compiled tile-level IR and per-pass statistics (None/empty
    #: for hand-assembled program sets).
    ir: Optional[MappingIR] = None
    pass_stats: List[PassStats] = field(default_factory=list)

    def build_machine(self) -> Machine:
        """A fresh machine with weights/biases preloaded."""
        machine = Machine(self.chip, self.partition.mem_columns, self.rows)
        for pre in self.preloads:
            tile = machine.mem_tile(machine.mem_tile_id(pre.col, pre.row))
            tile.write(pre.addr, pre.data, accumulate=False)
        for program in self.programs:
            machine.load_program(program)
        return machine

    def run(
        self, image: np.ndarray, *, fused: bool = True
    ) -> Tuple[np.ndarray, RunReport]:
        """Execute the forward pass on one image; returns (output vector,
        run statistics).  ``fused=False`` runs every instruction through
        its decoded per-instruction kernel instead of the superops —
        outputs, instruction counts and busy cycles stay bit-identical
        to fused runs, but superops compress stall rounds, so makespan
        ``cycles``/``rounds``/blocked counts may differ (see
        :class:`~repro.sim.engine.RunReport`)."""
        machine = self.build_machine()
        # Write the input image into column 0's home blocks.
        in_node = self.network.input
        for home in self.partition.blocks_of(in_node.name):
            tile = machine.mem_tile(machine.mem_tile_id(0, home.row))
            block = image[
                home.first_feature : home.first_feature + home.feature_count
            ]
            tile.write(home.address, block, accumulate=False)
        engine = Engine(machine, fused=fused)
        report = engine.run()
        out = np.concatenate([
            machine.mem_tile(
                machine.mem_tile_id(
                    self.partition.column_of[self.network.output.name],
                    home.row,
                )
            ).read(home.address, home.feature_count * home.feature_words)
            .copy()
            for home in self.output_blocks
        ])
        return out, report

    def run_batch(
        self, images: np.ndarray, fused: bool = True
    ) -> Tuple[np.ndarray, RunReport]:
        """Execute the forward pass on a minibatch at once: ``images``
        is ``(batch, channels, height, width)`` (any per-image layout
        matching :meth:`run`'s input works — only the leading batch axis
        is special).  Decoded op tables are shared and every superop
        (``fused=False``: every decoded instruction) vectorises across
        the batch on mirrored scratchpads.  Each output row is bitwise
        identical to :meth:`run` on that image with the same ``fused``
        flag (the unfused batched kernels agree with it only to
        float32 reduction-order noise), and the report — cycles and
        instruction counts model ONE image's program — equals that
        :meth:`run`'s.  Returns ``(batch, features)`` outputs plus the
        report."""
        images = np.asarray(images, dtype=np.float32)
        if images.ndim < 2:
            raise SimulationError(
                f"run_batch needs a leading batch axis, got shape "
                f"{images.shape}"
            )
        machine = self.build_machine()
        engine = Engine(machine, fused=fused)
        state = engine.make_batch(images.shape[0])
        in_node = self.network.input
        for home in self.partition.blocks_of(in_node.name):
            port = machine.mem_tile_id(0, home.row)
            block = images[
                :, home.first_feature : home.first_feature
                + home.feature_count
            ]
            state.write(port, home.address, block, accumulate=False)
        report = engine.run()
        out_col = self.partition.column_of[self.network.output.name]
        out = np.concatenate([
            state.read(
                machine.mem_tile_id(out_col, home.row),
                home.address,
                home.feature_count * home.feature_words,
            ).copy()
            for home in self.output_blocks
        ], axis=1)
        engine.end_batch()
        return out, report

    @property
    def instruction_count(self) -> int:
        return sum(len(p) for p in self.programs)

    def machine_shape(self):
        """The addressing envelope for the static verifier."""
        from repro.compiler.verifier import MachineShape

        return MachineShape(
            mem_tiles=self.partition.mem_columns * self.rows,
            words_per_tile=self.chip.mem_tile.capacity_bytes // 4,
            trackers_per_tile=self.chip.mem_tile.tracker_count,
        )

    def preloaded_regions(self):
        """(port, addr, words) regions written at machine build: the
        compiler's preloads plus the input image's home blocks."""
        regions = [
            (pre.col * self.rows + pre.row, pre.addr, pre.data.size)
            for pre in self.preloads
        ]
        for home in self.partition.blocks_of(self.network.input.name):
            regions.append((
                home.row,  # mem column 0
                home.address,
                home.feature_count * home.feature_words,
            ))
        return regions

    def verify(self, host_writes=()):
        """Run the static verifier over this compiled set (raises on
        any finding)."""
        from repro.compiler.verifier import assert_verified

        assert_verified(
            self.programs, self.machine_shape(),
            preloaded=self.preloaded_regions(), host_writes=host_writes,
        )

    def runner(self, *, fused: bool = True) -> "ForwardRunner":
        """A persistent-machine runner for streaming many images: the
        machine is built once, weights stay resident, and programs are
        rewound per image (the steady-state operation of Sec 3.2.3,
        minus the inter-image overlap)."""
        return ForwardRunner(self, fused=fused)


class ForwardRunner:
    """Streams images through one compiled forward pass."""

    def __init__(
        self, compiled: CompiledForward, fused: bool = True
    ) -> None:
        self.compiled = compiled
        self.machine = compiled.build_machine()
        self.engine = Engine(self.machine, fused=fused)
        self.images_run = 0

    def __call__(self, image: np.ndarray) -> Tuple[np.ndarray, RunReport]:
        """Run one image; its report equals ``compiled.run(image)``'s
        (counters restart per image; weights stay resident)."""
        compiled = self.compiled
        self.machine.reset_programs()
        self.machine.reset_counters()
        in_node = compiled.network.input
        for home in compiled.partition.blocks_of(in_node.name):
            tile = self.machine.mem_tile(
                self.machine.mem_tile_id(0, home.row)
            )
            tile.write(
                home.address,
                image[home.first_feature:
                      home.first_feature + home.feature_count],
                accumulate=False,
            )
        report = self.engine.run()
        out_col = compiled.partition.column_of[compiled.network.output.name]
        out = np.concatenate([
            self.machine.mem_tile(self.machine.mem_tile_id(out_col, h.row))
            .read(h.address, h.feature_count * h.feature_words).copy()
            for h in compiled.output_blocks
        ])
        self.images_run += 1
        return out, report


class ForwardCompiler:
    """Compiles FP programs for one (network, model) pair.

    Subclasses select the lowering *dialect* (``exact`` arms every
    tracker with hand-derived counts; ``calibrated`` arms placeholders
    and runs the static access analysis), the legalization *scope*, the
    IR *phases*, and how the network is partitioned — everything else
    is the shared pass pipeline.
    """

    dialect = "exact"
    scope = "forward"
    phases: Tuple[Phase, ...] = (Phase.FP,)
    #: Whether this compiler's programs may carry superop fusion plans.
    #: The training compiler opts out: its programs re-run over shared
    #: regions across FP/BP/WG phases, outside the forward-only
    #: dataflow analysis the fusion pass performs.
    supports_fusion = True

    def __init__(
        self,
        net: Network,
        model: ReferenceModel,
        chip: Optional[ChipConfig] = None,
        rows: int = 2,
        fuse: bool = True,
    ) -> None:
        if model.net is not net:
            raise MappingError("model must be built from the same network")
        self.net = net
        self.model = model
        self.chip = chip or conv_chip()
        self.rows = rows
        self.fuse = bool(fuse) and self.supports_fusion
        self.partition = self._partition()
        self.preloads: List[_Preload] = []
        self.ir: Optional[MappingIR] = None
        self.pass_stats: List[PassStats] = []

    def _partition(self) -> StatePartition:
        return partition_sequential(
            self.net, self.rows, self.chip.mem_tile.capacity_bytes // 4
        )

    # ------------------------------------------------------------------
    def _pipeline(self, align: bool) -> PassManager:
        passes = [
            LegalizePass(self.scope),
            PlaceCheckPass(),
            TrackerAssignPass(),
            SchedulePass(),
            LowerPass(align=align),
        ]
        # Fusion needs final pcs: with align=False the caller will
        # prepend prologue pads later, which would shift every span.
        if self.fuse and align:
            passes.append(FusePass())
        return PassManager(passes)

    def _run_pipeline(
        self,
        align: bool,
        minibatch: int = 1,
        learning_rate: Tuple[int, int] = (1, 100),
    ) -> PassContext:
        ir = build_tile_ir(
            self.net, self.partition, self.rows,
            phases=self.phases, minibatch=minibatch,
        )
        ctx = PassContext(
            net=self.net,
            model=self.model,
            chip=self.chip,
            partition=self.partition,
            rows=self.rows,
            dialect=self.dialect,
            minibatch=minibatch,
            learning_rate=learning_rate,
        )
        self.ir, self.pass_stats = self._pipeline(align).run(ir, ctx)
        self.preloads = ctx.preloads
        return ctx

    def compile(self, align: bool = True) -> CompiledForward:
        """Compile the forward programs.  ``align=False`` defers prologue
        alignment to a caller that will add more programs."""
        ctx = self._run_pipeline(align)
        compiled = CompiledForward(
            network=self.net,
            chip=self.chip,
            rows=self.rows,
            partition=self.partition,
            programs=ctx.programs,
            preloads=self.preloads,
            output_blocks=self.partition.blocks_of(self.net.output.name),
            ir=self.ir,
            pass_stats=self.pass_stats,
        )
        if align:
            # The training compiler verifies the combined set itself
            # (its error-injection region is a host write).
            compiled.verify()
        return compiled

    # ------------------------------------------------------------------
    @staticmethod
    def _align_prologues(programs: List[Program]) -> None:
        align_prologues(programs)


def compile_forward(
    net: Network,
    model: ReferenceModel,
    chip: Optional[ChipConfig] = None,
    rows: int = 2,
) -> CompiledForward:
    """Convenience wrapper: compile ``net``'s forward pass for the engine."""
    return ForwardCompiler(net, model, chip, rows).compile()
