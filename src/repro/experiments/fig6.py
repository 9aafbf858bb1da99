"""Fig. 6: effect of pipelining, one micro-study per mapping regime.

For each regime we time a small representative command window with the
baseline buffer count vs the pipelined one and report cycles and (for
inter-row) row activations — the two mechanisms the paper credits:
latency overlap and activation elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..api import ProgramRequest, Simulator
from ..dram.commands import CommandType
from ..mapping.program import ProgramBuilder
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import format_table

__all__ = ["Fig6Result", "run_fig6"]

_ATOMS = 8          # atoms per micro-study window
_PAIRS = 8          # atom pairs per inter-atom window


@dataclass
class Fig6Result:
    """cycles[(regime, 'baseline'|'pipelined')], activations likewise."""

    cycles: Dict[tuple, int]
    activations: Dict[tuple, int]

    def speedup(self, regime: str) -> float:
        return (self.cycles[(regime, "baseline")]
                / self.cycles[(regime, "pipelined")])

    def check_claims(self) -> Dict[str, bool]:
        claims = {}
        for regime in ("intra-atom", "intra-row", "inter-row"):
            claims[f"{regime}_pipelining_helps"] = self.speedup(regime) > 1.1
        # Fig. 6c: pipelining in inter-row also CUTS activations (~2x).
        claims["inter_row_fewer_activations"] = (
            self.activations[("inter-row", "pipelined")]
            <= 0.6 * self.activations[("inter-row", "baseline")])
        return claims

    def table(self) -> str:
        rows: List[List[object]] = []
        for regime in ("intra-atom", "intra-row", "inter-row"):
            rows.append([regime,
                         self.cycles[(regime, "baseline")],
                         self.cycles[(regime, "pipelined")],
                         self.speedup(regime),
                         self.activations[(regime, "baseline")],
                         self.activations[(regime, "pipelined")]])
        return format_table(
            ["regime", "cycles w/o", "cycles w/", "speedup",
             "ACTs w/o", "ACTs w/"],
            rows, title="Fig. 6 — pipelining micro-study per regime")


def _simulate(builder: ProgramBuilder, nb: int):
    simulator = Simulator(SimConfig(pim=PimParams(nb_buffers=max(nb, 1)),
                                    functional=False, verify=False))
    response = simulator.run(
        ProgramRequest(commands=builder.build().materialize_commands()))
    return response.raw  # the ScheduleResult of the micro-study window


def _intra_atom_window(nb: int) -> ProgramBuilder:
    """RD / C1 / WR over _ATOMS atoms with an nb-deep buffer pool."""
    b = ProgramBuilder(0, nb)
    b.emit(CommandType.PARAM_WRITE, payload_words=6)
    b.goto_row(0)
    for start in range(0, _ATOMS, nb):
        group = list(range(start, min(start + nb, _ATOMS)))
        for i, col in enumerate(group):
            b.cu_read(0, col, i)
        for i, col in enumerate(group):
            b.c1(i, 3)
        for i, col in enumerate(group):
            b.cu_write(0, col, i)
    b.close_row()
    return b


def _intra_row_window(nb: int) -> ProgramBuilder:
    """C2 over _PAIRS same-row atom pairs with nb buffers."""
    b = ProgramBuilder(0, nb)
    b.emit(CommandType.PARAM_WRITE, payload_words=6)
    b.goto_row(0)
    slots = nb // 2
    pairs = [(i, i + _PAIRS) for i in range(_PAIRS)]
    for start in range(0, len(pairs), slots):
        group = pairs[start:start + slots]
        for s, (ca, cb) in enumerate(group):
            b.cu_read(0, ca, 2 * s)
            b.cu_read(0, cb, 2 * s + 1)
        for s, _ in enumerate(group):
            b.c2(2 * s, 2 * s + 1, 1, 3)
        for s, (ca, cb) in enumerate(group):
            b.cu_write(0, ca, 2 * s)
            b.cu_write(0, cb, 2 * s + 1)
    b.close_row()
    return b


def _inter_row_window(nb: int) -> ProgramBuilder:
    """C2 over _PAIRS pairs straddling rows 0 and 1 with nb buffers."""
    b = ProgramBuilder(0, nb)
    b.emit(CommandType.PARAM_WRITE, payload_words=6)
    slots = nb // 2
    pairs = list(range(_PAIRS))
    for start in range(0, len(pairs), slots):
        group = pairs[start:start + slots]
        b.goto_row(0)
        for s, col in enumerate(group):
            b.cu_read(0, col, 2 * s)
        b.goto_row(1)
        for s, col in enumerate(group):
            b.cu_read(1, col, 2 * s + 1)
        for s, _ in enumerate(group):
            b.c2(2 * s, 2 * s + 1, 1, 3)
        for s, col in enumerate(group):
            b.cu_write(1, col, 2 * s + 1)
        b.goto_row(0)
        for s, col in enumerate(group):
            b.cu_write(0, col, 2 * s)
    b.close_row()
    return b


def run_fig6() -> Fig6Result:
    """Baseline vs pipelined buffer counts per regime (Fig. 6's pairs:
    intra-atom 1->2 effective-depth, inter-atom Nb 2->4)."""
    cycles: Dict[tuple, int] = {}
    acts: Dict[tuple, int] = {}
    studies = {
        "intra-atom": (_intra_atom_window, 1, 2),
        "intra-row": (_intra_row_window, 2, 4),
        "inter-row": (_inter_row_window, 2, 4),
    }
    for regime, (make, base_nb, pipe_nb) in studies.items():
        for label, nb in (("baseline", base_nb), ("pipelined", pipe_nb)):
            schedule = _simulate(make(nb), nb)
            cycles[(regime, label)] = schedule.total_cycles
            acts[(regime, label)] = schedule.stats.activations
    return Fig6Result(cycles=cycles, activations=acts)
