"""The pass-based IR compiler tier.

Command programs compile through a real (small) compiler pipeline:

``mapper -> StreamIR -> passes -> CommandStream``

* :class:`StreamIR` (:mod:`repro.compile.ir`) — the SoA columnar IR,
  emitted directly by the mappers' ``ProgramBuilder`` (hand-built
  command tuples enter through ``StreamIR.from_commands``).
* :mod:`repro.compile.passes` — validation, buffer renaming,
  dependency-depth grouping, lane-granular (Nb=1) renaming and
  group-result pooling, run as one fixed pipeline whose plan is
  bit-identical to the per-command reference interpreter
  (:meth:`repro.pim.bank_pim.PimBank.run`).
* :mod:`repro.compile.lower` — IR -> executable
  :class:`~repro.dram.stream.CommandStream` lowering plus the
  vectorized program merges (:func:`interleave_irs`,
  :func:`concat_irs`).
* :func:`compile_request` (:mod:`repro.compile.api`) — the public
  entry: facade request -> :class:`CompiledProgram`.

This ``__init__`` resolves attributes lazily (PEP 562):
``repro.dram.stream`` imports :class:`FunctionalPlan` from
:mod:`repro.compile.plan` at module level, and eager submodule imports
here would close that cycle.
"""

from __future__ import annotations

__all__ = [
    "StreamIR",
    "FunctionalPlan",
    "build_plan",
    "compile_ir",
    "interleave_irs",
    "concat_irs",
    "CompiledProgram",
    "compile_request",
]

_EXPORTS = {
    "StreamIR": ("ir", "StreamIR"),
    "FunctionalPlan": ("plan", "FunctionalPlan"),
    "build_plan": ("passes", "build_plan"),
    "compile_ir": ("lower", "compile_ir"),
    "interleave_irs": ("lower", "interleave_irs"),
    "concat_irs": ("lower", "concat_irs"),
    "CompiledProgram": ("api", "CompiledProgram"),
    "compile_request": ("api", "compile_request"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
