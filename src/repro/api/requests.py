"""Typed, frozen request objects of the :mod:`repro.api` facade.

Each request class captures one workload shape of the paper's
evaluation, so the mapping back to the source material stays explicit:

=====================  ======================================================
request                paper section it reproduces
=====================  ======================================================
:class:`NttRequest`    Sec. IV.A host protocol / Sec. VI.C (Fig. 7, Fig. 8):
                       one cyclic (I)NTT invocation against one bank.
:class:`NegacyclicRequest`
                       merged negacyclic transform extension of Sec. III
                       (the C1N/zeta mapping in
                       :mod:`repro.mapping.negacyclic_mapper`).
:class:`BatchRequest`  back-to-back transforms in one bank — the batching
                       side of the Sec. VI.A FHE deployment story.
:class:`MultiBankRequest`
                       Sec. VI.A / Conclusion: one independent NTT per bank
                       (e.g. one RNS limb each) on the shared command bus.
:class:`FheOpRequest`  Sec. I motivation: negacyclic ring arithmetic whose
                       NTTs run on the PIM (forward / inverse / multiply).
:class:`ProgramRequest`
                       raw command-window micro-studies (Fig. 5 / Fig. 6).
=====================  ======================================================

Requests are frozen dataclasses: value sequences are normalized to
tuples in ``__post_init__`` so a request is immutable and hashable, and
:meth:`SimRequest.validate` raises :class:`~repro.errors.RequestValidationError`
on malformed parameters before any simulation work starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import ClassVar, Optional, Tuple

from ..arith.roots import NttParams
from ..dram.commands import Command
from ..errors import RequestValidationError
from ..ntt.negacyclic import NegacyclicParams

__all__ = ["SimRequest", "NttRequest", "NegacyclicRequest", "BatchRequest",
           "BankSpec", "MultiBankRequest", "FheOpRequest", "ProgramRequest",
           "KyberKemRequest", "inherit_range_check"]


def _freeze(values) -> Optional[Tuple[int, ...]]:
    return None if values is None else tuple(values)


def _freeze_nested(rows) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)


def _check_range(values, q: int, label: str) -> None:
    """Refuse coefficients outside ``[0, q)``.

    One ``min``/``max`` pass per row keeps the check off the per-element
    Python path; the offending value is only searched for on failure."""
    try:
        ok = not values or (min(values) >= 0 and max(values) < q)
    except TypeError:
        ok = False
    if not ok:
        bad = next((v for v in values if not (isinstance(v, Integral)
                                              and 0 <= v < q)), None)
        raise RequestValidationError(
            f"{label}: coefficient {bad!r} outside [0, {q})")


#: Instance-dict mark of a request whose coefficients passed the check.
_IN_RANGE = "_coefficients_in_range"


def _modulus(request) -> int:
    """``q`` of a request or bank spec, cyclic (``params``) or
    negacyclic (``ring``)."""
    ring = getattr(request, "ring", None)
    return ring.q if ring is not None else request.params.q


def _check_ranges(request: "SimRequest", rows) -> None:
    """Range-check every ``(values, q, label)`` row of ``request``, once
    per request object: requests are immutable, so a passed check stays
    passed however often the serving path re-validates the request."""
    if _IN_RANGE in request.__dict__:
        return
    for values, q, label in rows:
        _check_range(values, q, label)
    object.__setattr__(request, _IN_RANGE, True)


def inherit_range_check(merged: "MultiBankRequest",
                        members) -> "MultiBankRequest":
    """Mark ``merged`` — a homogeneous group whose rows are ``members``'
    own value rows (or zero rows) — range-checked when every member is
    and shares its modulus."""
    q = _modulus(merged)
    if all(_IN_RANGE in m.__dict__ and _modulus(m) == q for m in members):
        object.__setattr__(merged, _IN_RANGE, True)
    return merged


@dataclass(frozen=True)
class SimRequest:
    """Base class of every facade request.

    Subclasses set the ``workload`` class attribute to the registry name
    their handler is registered under (see
    :func:`repro.api.register_workload`) and may override
    :meth:`validate`.
    """

    workload: ClassVar[str] = ""

    def validate(self) -> None:
        """Raise :class:`RequestValidationError` on malformed parameters."""
        if not self.workload:
            raise RequestValidationError(
                f"{type(self).__name__} does not name a workload")


@dataclass(frozen=True)
class NttRequest(SimRequest):
    """One cyclic (I)NTT invocation (Sec. IV.A protocol; Fig. 7/8 runs).

    ``values=None`` runs on an all-zero polynomial — the timing-only
    idiom of the experiment sweeps (pair with
    ``SimConfig(functional=False)``).  ``inverse=True`` runs the inverse
    transform including the host-side 1/N scale.
    """

    workload: ClassVar[str] = "ntt"

    params: NttParams
    values: Optional[Tuple[int, ...]] = None
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))

    def validate(self) -> None:
        if not isinstance(self.params, NttParams):
            raise RequestValidationError("params must be an NttParams")
        if self.values is not None:
            if len(self.values) != self.params.n:
                raise RequestValidationError(
                    f"expected {self.params.n} values, "
                    f"got {len(self.values)}")
            _check_ranges(self, ((self.values, self.params.q, "values"),))


@dataclass(frozen=True)
class NegacyclicRequest(SimRequest):
    """One native merged negacyclic transform (C1N mapping extension)."""

    workload: ClassVar[str] = "negacyclic"

    ring: NegacyclicParams
    values: Optional[Tuple[int, ...]] = None
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))

    def validate(self) -> None:
        if not isinstance(self.ring, NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.values is not None:
            if len(self.values) != self.ring.n:
                raise RequestValidationError(
                    f"expected {self.ring.n} values, got {len(self.values)}")
            _check_ranges(self, ((self.values, self.ring.q, "values"),))


@dataclass(frozen=True)
class BatchRequest(SimRequest):
    """Back-to-back NTTs of all ``inputs`` in one bank (Sec. VI.A
    batching: amortized PARAM_WRITE, pipelined transform seams)."""

    workload: ClassVar[str] = "batch"

    params: NttParams
    inputs: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze_nested(self.inputs))

    def validate(self) -> None:
        if len(self.inputs) < 1:
            raise RequestValidationError("need at least one polynomial")
        for i, row in enumerate(self.inputs):
            if len(row) != self.params.n:
                raise RequestValidationError(
                    f"batch element {i}: expected {self.params.n} values, "
                    f"got {len(row)}")
        _check_ranges(self, ((row, self.params.q, f"batch element {i}")
                             for i, row in enumerate(self.inputs)))


@dataclass(frozen=True)
class BankSpec:
    """One bank's transform kind in a mixed-kind
    :class:`MultiBankRequest`: a cyclic NTT (``params``) or a merged
    negacyclic transform (``ring``) — exactly one of the two — with
    ``inverse`` selecting the inverse transform (host-side 1/N scale
    applied, exactly as the standalone request runs it)."""

    params: Optional[NttParams] = None
    ring: Optional[NegacyclicParams] = None
    inverse: bool = False

    @property
    def n(self) -> int:
        """Polynomial length of whichever kind is set."""
        return self.ring.n if self.ring is not None else self.params.n

    def validate(self, label: str = "bank spec") -> None:
        if (self.params is None) == (self.ring is None):
            raise RequestValidationError(
                f"{label}: set exactly one of params (cyclic) or "
                "ring (negacyclic)")
        if self.ring is not None and not isinstance(self.ring,
                                                    NegacyclicParams):
            raise RequestValidationError(
                f"{label}: ring must be a NegacyclicParams")
        if self.params is not None and not isinstance(self.params, NttParams):
            raise RequestValidationError(
                f"{label}: params must be an NttParams")


@dataclass(frozen=True)
class MultiBankRequest(SimRequest):
    """One independent transform per bank on the shared command bus
    (Sec. VI.A / Conclusion — the RNS-limb-per-bank deployment).

    The homogeneous convenience form sets ``params`` (cyclic NTT) or
    ``ring`` (merged negacyclic) — exactly one of the two — and every
    bank runs that transform, with ``inverse=True`` selecting the
    inverse (host-side 1/N scale applied).  The general form sets
    ``specs`` instead: one :class:`BankSpec` per input row, so a single
    bus dispatch can mix kinds and directions across banks (e.g.
    forward and inverse limbs of one shape interleaved together).
    Either way, every bank's output is bit-identical to the matching
    single-request :class:`NttRequest` / :class:`NegacyclicRequest`
    run.  This is the dispatch shape the serving layer's batching
    scheduler coalesces all three transform kinds into.
    """

    workload: ClassVar[str] = "multibank"

    params: Optional[NttParams] = None
    inputs: Tuple[Tuple[int, ...], ...] = ()
    inverse: bool = False
    ring: Optional[NegacyclicParams] = None
    specs: Optional[Tuple["BankSpec", ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze_nested(self.inputs))
        if self.specs is not None:
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n(self) -> int:
        """Per-bank polynomial length (homogeneous form only)."""
        return self.ring.n if self.ring is not None else self.params.n

    def bank_specs(self) -> Tuple["BankSpec", ...]:
        """One :class:`BankSpec` per bank, whichever form was used."""
        if self.specs is not None:
            return self.specs
        return tuple(BankSpec(params=self.params, ring=self.ring,
                              inverse=self.inverse)
                     for _ in self.inputs)

    def validate(self) -> None:
        if len(self.inputs) < 1:
            raise RequestValidationError("need at least one bank's input")
        if self.specs is not None:
            if self.params is not None or self.ring is not None:
                raise RequestValidationError(
                    "set either specs or the homogeneous params/ring "
                    "fields, not both")
            if self.inverse:
                raise RequestValidationError(
                    "with specs, put inverse on each BankSpec")
            if len(self.specs) != len(self.inputs):
                raise RequestValidationError(
                    f"got {len(self.specs)} specs for "
                    f"{len(self.inputs)} input rows")
            for i, (spec, row) in enumerate(zip(self.specs, self.inputs)):
                if not isinstance(spec, BankSpec):
                    raise RequestValidationError(
                        f"bank {i}: specs entries must be BankSpec")
                spec.validate(label=f"bank {i}")
                if len(row) != spec.n:
                    raise RequestValidationError(
                        f"bank {i}: expected {spec.n} values, "
                        f"got {len(row)}")
            _check_ranges(self, ((row, _modulus(spec), f"bank {i}")
                                 for i, (spec, row)
                                 in enumerate(zip(self.specs, self.inputs))))
            return
        if (self.params is None) == (self.ring is None):
            raise RequestValidationError(
                "set exactly one of params (cyclic) or ring (negacyclic)")
        if self.ring is not None and not isinstance(self.ring,
                                                    NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.params is not None and not isinstance(self.params, NttParams):
            raise RequestValidationError("params must be an NttParams")
        for i, row in enumerate(self.inputs):
            if len(row) != self.n:
                raise RequestValidationError(
                    f"bank {i}: expected {self.n} values, "
                    f"got {len(row)}")
        q = _modulus(self)
        _check_ranges(self, ((row, q, f"bank {i}")
                             for i, row in enumerate(self.inputs)))


@dataclass(frozen=True)
class FheOpRequest(SimRequest):
    """One negacyclic ring operation with its NTTs on the PIM (Sec. I).

    ``op`` is ``"forward"``, ``"inverse"`` or ``"multiply"`` (two
    forward transforms, pointwise product, one inverse).  ``native=True``
    uses the merged negacyclic mapping instead of the paper-faithful
    host psi-scaling + cyclic NTT protocol.
    """

    workload: ClassVar[str] = "fhe"
    OPS: ClassVar[Tuple[str, ...]] = ("forward", "inverse", "multiply")

    ring: NegacyclicParams
    op: str = "multiply"
    a: Tuple[int, ...] = ()
    b: Optional[Tuple[int, ...]] = None
    native: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", _freeze(self.b))

    def validate(self) -> None:
        if not isinstance(self.ring, NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.op not in self.OPS:
            raise RequestValidationError(
                f"unknown FHE op {self.op!r}; choose from {self.OPS}")
        if len(self.a) != self.ring.n:
            raise RequestValidationError(
                f"operand a: expected {self.ring.n} values, got {len(self.a)}")
        if self.op == "multiply":
            if self.b is None or len(self.b) != self.ring.n:
                raise RequestValidationError(
                    "multiply needs a second operand b of length n")
        elif self.b is not None:
            raise RequestValidationError(f"op {self.op!r} takes one operand")
        operands = (("a", self.a),) + ((("b", self.b),) if self.b else ())
        _check_ranges(self, ((values, self.ring.q, f"operand {label}")
                             for label, values in operands))


@dataclass(frozen=True)
class KyberKemRequest(SimRequest):
    """Kyber-style KEM ring product via the *incomplete* (truncated)
    NTT — the lattice-crypto workload ``examples/kyber_like.py``
    sketches, promoted to a registered facade request.

    Kyber's modulus (q=3329, n=256) admits no 512th root of unity, so
    the transform stops ``log2(depth)`` butterfly levels early and the
    pointwise stage becomes a base multiplication of degree-``depth``
    slot polynomials.  The handler computes the exact host math and
    prices PIM timing as the equivalent sub-transform runs (the
    truncated transform executes exactly the butterflies of ``depth``
    independent cyclic NTTs of size ``n/depth`` per operand).
    """

    workload: ClassVar[str] = "kyber_kem"

    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = ()
    n: int = 256
    q: int = 3329
    depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))

    def validate(self) -> None:
        # Lazy: repro.ntt sits above this module's import layer.
        from ..ntt.incomplete import incomplete_params
        # The params cache would answer 256.0 or True with the entry of
        # 256 or 1 (equal hashes), so non-integers are refused up front.
        for label, value in (("n", self.n), ("q", self.q),
                             ("depth", self.depth)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise RequestValidationError(
                    f"{label} must be an integer, got {value!r}")
        try:
            incomplete_params(self.n, self.q, self.depth)
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from None
        for label, operand in (("a", self.a), ("b", self.b)):
            if len(operand) != self.n:
                raise RequestValidationError(
                    f"operand {label}: expected {self.n} values, "
                    f"got {len(operand)}")


@dataclass(frozen=True)
class ProgramRequest(SimRequest):
    """Run a raw command program (the Fig. 5/6 micro-study windows).

    By default the program runs through the timing engine only; buffer
    depth and clocking come from the simulator's
    :class:`~repro.sim.driver.SimConfig`.

    With ``functional=True`` the program also executes on the
    functional bank model: ``memory`` rows are host-written first
    (``(base_row, words)`` pairs, exactly as the Sec. IV.A protocol
    leaves the input "already in memory"), ``modulus`` is staged for
    the program's PARAM_WRITE, and after execution the bank-resident
    ``read_rows`` window (``(base_row, length)``) is read back into
    ``SimResponse.values`` — the same envelope shape every other
    workload returns.
    """

    workload: ClassVar[str] = "program"

    commands: Tuple[Command, ...] = ()
    label: str = ""
    functional: bool = False
    modulus: Optional[int] = None
    #: Host-preloaded bank rows: ``(base_row, words)`` pairs.
    memory: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    #: Result window to read back: ``(base_row, length)``.
    read_rows: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(self.commands))
        object.__setattr__(
            self, "memory",
            tuple((int(row), tuple(words)) for row, words in self.memory))
        if self.read_rows is not None:
            object.__setattr__(self, "read_rows", tuple(self.read_rows))

    def validate(self) -> None:
        if len(self.commands) < 1:
            raise RequestValidationError("need at least one command")
        if not self.functional:
            if self.modulus is not None or self.memory or self.read_rows:
                raise RequestValidationError(
                    "modulus/memory/read_rows require functional=True")
            return
        if self.modulus is not None and self.modulus < 2:
            raise RequestValidationError("modulus must be >= 2")
        for row, words in self.memory:
            if row < 0:
                raise RequestValidationError("memory base_row must be >= 0")
            if not words:
                raise RequestValidationError(
                    f"memory row {row}: need at least one word")
        if self.read_rows is not None:
            base, length = self.read_rows
            if base < 0 or length < 1:
                raise RequestValidationError(
                    "read_rows must be a (base_row >= 0, length >= 1) pair")
