"""Span tracing of the simulator's layers, from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer with a
recording shim while it is installed, and restores the originals when
it is removed.  Every call records one span ``[name, start_ns, end_ns,
parent, attrs]``; spans stay in memory and are written out once, at the
end, as Chrome trace-event JSON.  The ``parent`` chain ties every span
to the root span of the request that caused it.

A name's prefix before the first ``.`` is its layer.  A layer's self
time is the summed duration of its spans minus the part their child
spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "layer_metrics"]

_NAME, _START, _END, _PARENT, _ATTRS = range(5)


class Tracer:
    """Install/remove span shims around the simulator's layer entry points."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, probe=None) -> Callable:
        """``fn`` recording a span per call.  ``probe(args)`` runs before
        the call and returns a closure that, given the result, returns the
        span's attributes (or ``None``)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            finish = probe(args) if probe is not None else None
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if finish is not None:
                span[_ATTRS] = finish(result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, name: str, module: str, attr: str, probe=None,
                        scope: Optional[tuple] = None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module (or only the
        modules in ``scope``) binds it by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original, probe)
        holders = ([importlib.import_module(m) for m in scope] if scope else
                   [m for key, m in list(sys.modules.items())
                    if key.split(".")[0] == "repro" and m is not None])
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, key, wrapper)

    def _patch_method(self, name: str, cls, attr: str, probe=None) -> None:
        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], probe))

    # -- the layer map -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points (see :data:`catalog.PER_LAYER`)."""
        from repro.api import Simulator
        from repro.cluster import ClusterFrontend
        from repro.dram.engine import TimingEngine
        from repro.dram.stream import stream_cache_info
        from repro.fhe.ops import PimFheAccelerator
        from repro.mapping.program_cache import program_cache_info
        from repro.pim.bank_pim import PimBank
        from repro.serve import SimServer
        from repro.sim.driver import schedule_cache_info

        def cache_probe(info, count=None):
            """Attributes of a call that missed ``info``'s cache."""
            def probe(args):
                before = info()["misses"]
                return lambda result: (
                    {"miss": True, **(count(result) if count else {})}
                    if info()["misses"] > before else None)
            return probe

        program_probe = cache_probe(
            program_cache_info,
            lambda program: {"commands": len(program.commands)})
        stream_probe = cache_probe(
            stream_cache_info,
            lambda stream: {"commands": stream.n,
                            "fused": stream.plan is not None})

        self._patch_function("mapping.program",
                             "repro.mapping.program_cache", "cyclic_program",
                             program_probe)
        self._patch_function("mapping.program",
                             "repro.mapping.program_cache",
                             "negacyclic_program", program_probe)
        self._patch_function("compile.stream", "repro.dram.stream",
                             "cached_stream", stream_probe)
        self._patch_function("dram.schedule", "repro.sim.driver",
                             "cached_schedule",
                             cache_probe(schedule_cache_info))
        self._patch_method("dram.replay", TimingEngine, "simulate_stream",
                           lambda args: lambda result: {
                               "commands": args[1].n})
        self._patch_function("sim.merge", "repro.sim.multibank",
                             "compile_multibank")
        self._patch_function("sim.merge", "repro.sim.batch", "compile_batch")

        def bu_probe(args):
            bank = args[0]
            before = bank.cu.bu_ops
            return lambda result: {"bu_ops": bank.cu.bu_ops - before}

        self._patch_method("pim.exec", PimBank, "run_stream", bu_probe)
        self._patch_method("pim.host_io", PimBank, "load_polynomial")
        self._patch_method("pim.host_io", PimBank, "read_polynomial")
        # The execution paths' own bindings only: the golden models call
        # bit_reverse_permute too, inside their own spans.
        runners = ("repro.sim.driver", "repro.sim.batch",
                   "repro.sim.multibank")
        self._patch_function("pim.host_io", "repro.arith.bitrev",
                             "bit_reverse_permute", scope=runners)
        self._patch_function("ntt.verify", "repro.ntt.reference", "ntt",
                             scope=runners)
        self._patch_function("ntt.verify", "repro.ntt.reference", "intt",
                             scope=runners)
        for attr in ("merged_negacyclic_ntt", "merged_negacyclic_intt"):
            self._patch_function("ntt.verify", "repro.ntt.merged", attr,
                                 scope=("repro.ntt.merged", "repro.sim.driver"))
        # The FHE and KEM handlers import their golden models at call time.
        for attr in ("negacyclic_ntt", "negacyclic_intt"):
            self._patch_function("ntt.verify", "repro.ntt.negacyclic", attr,
                                 scope=("repro.ntt.negacyclic",))
        self._patch_function("ntt.verify", "repro.ntt",
                             "naive_negacyclic_convolution",
                             scope=("repro.ntt",))

        for attr in ("__init__", "forward", "inverse", "multiply"):
            self._patch_method("fhe.op", PimFheAccelerator, attr)
        self._patch_method("api.run", Simulator, "run")
        for attr in ("serve", "submit", "advance", "poll", "drain"):
            self._patch_method(f"serve.{attr}", SimServer, attr)
        self._patch_method("cluster.serve", ClusterFrontend, "serve")

    def remove(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """The spans as Chrome trace-event JSON (one complete event per
        span; ``args.parent`` is the parent span's index)."""
        events = [{"name": s[_NAME], "cat": s[_NAME].split(".")[0],
                   "ph": "X", "pid": 0, "tid": 0,
                   "ts": s[_START] / 1000.0,
                   "dur": (s[_END] - s[_START]) / 1000.0,
                   "args": {"id": i, "parent": s[_PARENT],
                            **(s[_ATTRS] or {})}}
                  for i, s in enumerate(self.spans)]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def layer_metrics(spans: List[list], wall_ns: int) -> Dict[str, float]:
    """Host-side per-layer metrics of one traced repetition."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_ns[span[_PARENT]] += span[_END] - span[_START]
    self_ns: Dict[str, int] = defaultdict(int)
    miss_self_ns: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    api_outer_ns = root_ns = 0
    for i, span in enumerate(spans):
        name, duration = span[_NAME], span[_END] - span[_START]
        own = duration - child_ns[i]
        self_ns[name] += own
        extra = span[_ATTRS]
        if extra:
            miss_self_ns[name] += own
            for key, value in extra.items():
                attrs[name][key] += value
        if span[_PARENT] < 0:
            root_ns += duration
        if name == "api.run" and not _has_ancestor(spans, i, "api.run"):
            api_outer_ns += duration

    def ms(*names):
        return sum(self_ns[n] for n in names) / 1e6

    def per_cmd(name):
        commands = attrs[name]["commands"]
        return miss_self_ns[name] / 1e3 / commands if commands else 0.0

    def prefixed(prefix):
        return [n for n in self_ns if n.startswith(prefix)]

    replay_s = self_ns["dram.replay"] / 1e9
    compiled = attrs["compile.stream"]["commands"]
    # A fused stream contributes its command count to the fused share.
    fused = sum(span[_ATTRS]["commands"] for span in spans
                if span[_NAME] == "compile.stream" and span[_ATTRS]
                and span[_ATTRS]["fused"])
    return {
        "mapping.ms": ms("mapping.program"),
        "mapping.commands": attrs["mapping.program"]["commands"],
        "mapping.us_per_cmd": per_cmd("mapping.program"),
        "compile.ms": ms("compile.stream"),
        "compile.us_per_cmd": per_cmd("compile.stream"),
        "compile.fused_ratio": fused / compiled if compiled else 0.0,
        "dram.replay_ms": ms("dram.replay"),
        "dram.replay_cmds_per_s": (attrs["dram.replay"]["commands"] / replay_s
                                   if replay_s else 0.0),
        "pim.exec_ms": ms("pim.exec"),
        "pim.host_io_ms": ms("pim.host_io"),
        "pim.bu_ops": attrs["pim.exec"]["bu_ops"],
        "sim.merge_ms": ms("sim.merge"),
        "ntt.verify_ms": ms("ntt.verify"),
        "fhe.ms": ms("fhe.op"),
        "api.run_ms": api_outer_ns / 1e6,
        "api.self_ms": ms("api.run"),
        "serve.self_ms": ms(*prefixed("serve.")),
        "cluster.self_ms": ms(*prefixed("cluster.")),
        "trace.uncovered_ms": max(0, wall_ns - root_ns) / 1e6,
    }


def _has_ancestor(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return True
        parent = spans[parent][_PARENT]
    return False
