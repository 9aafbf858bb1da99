"""Submission normalization shared by every serving front door.

:class:`~repro.serve.SimServer` and
:class:`~repro.cluster.ClusterFrontend` accept a whole arrival stream
(``serve``) or one submission at a time (``submit``), and must turn both
into absolute-time :class:`ServeRequest`\\ s by the same rules, or a
1-replica cluster stops being bit-identical to a bare server.  Both
session classes derive from :class:`SessionIntake`, which owns the
rules: validation before anything is queued, the session clock offset,
the live arrival clamp, and the id rule.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, List, Optional, Tuple, Union

from ..api.requests import SimRequest
from ..sim.driver import SimConfig
from .queueing import ServeRequest

__all__ = ["SessionIntake", "fold_submit"]


def fold_submit(request: Union[ServeRequest, SimRequest], *,
                arrival_us: Optional[float], priority: int,
                deadline_us: Optional[float], config: Optional[SimConfig],
                request_id: int, tenant: str
                ) -> Tuple[ServeRequest, Optional[float]]:
    """Fold ``submit()``'s two spellings — a bare facade request plus
    keyword scheduling fields, or a fully populated
    :class:`ServeRequest`, not both — into one validated,
    session-relative :class:`ServeRequest` and its requested arrival
    (``None`` = "now")."""
    if isinstance(request, ServeRequest):
        if (priority, deadline_us, config, request_id,
                tenant) != (0, None, None, 0, ""):
            raise ValueError(
                "pass scheduling fields on the ServeRequest itself, "
                "not as submit() keywords")
        if arrival_us is None and request.arrival_us:
            arrival_us = request.arrival_us
        sreq = request
    else:
        sreq = ServeRequest(request=request, priority=priority,
                            deadline_us=deadline_us, request_id=request_id,
                            config=config, tenant=tenant)
    sreq.request.validate()
    return sreq, arrival_us


class SessionIntake:
    """One session's clock offset and id set, plus the normalization
    rules both entry styles share."""

    def __init__(self, offset_us: float, next_id: Callable[[], int]):
        #: Session clock offset: arrivals are relative to serve()/first
        #: submit() and shifted onto the front door's monotonic clock.
        self.offset = offset_us
        #: Every id this session has handed out.
        self.seen: set = set()
        self._next_id = next_id

    def assign_id(self, request_id: int) -> int:
        """Keep ``request_id`` if it is set and unseen in this session;
        otherwise allocate a fresh unique one."""
        if request_id == 0 or request_id in self.seen:
            request_id = self._next_id()
            while request_id in self.seen:
                request_id = self._next_id()
        self.seen.add(request_id)
        return request_id

    def admit_stream(self, requests: Iterable[Union[ServeRequest,
                                                    SimRequest]]
                     ) -> List[ServeRequest]:
        """The ``serve()`` form: every item validated, shifted onto the
        session clock and given its id, in input order.  Copy-on-write
        keeps the caller's :class:`ServeRequest`\\ s untouched."""
        offset = self.offset
        sreqs: List[ServeRequest] = []
        for item in requests:
            if not isinstance(item, ServeRequest):
                item = ServeRequest(request=item)
            item.request.validate()
            changes = {}
            if offset:
                changes["arrival_us"] = item.arrival_us + offset
                if item.deadline_us is not None:
                    changes["deadline_us"] = item.deadline_us + offset
            request_id = self.assign_id(item.request_id)
            if request_id != item.request_id:
                changes["request_id"] = request_id
            sreqs.append(dataclasses.replace(item, **changes)
                         if changes else item)
        return sreqs

    def admit_live(self, sreq: ServeRequest, arrival_us: Optional[float],
                   now_us: float) -> ServeRequest:
        """The ``submit()`` form (after :func:`fold_submit`): arrive at
        ``arrival_us`` (session-relative; ``None`` = ``now_us``),
        clamped forward — a live client cannot arrive before events
        already processed."""
        arrival = (self.offset + arrival_us if arrival_us is not None
                   else now_us)
        arrival = max(arrival, now_us, self.offset)
        deadline = (self.offset + sreq.deadline_us
                    if sreq.deadline_us is not None else None)
        return dataclasses.replace(
            sreq, arrival_us=arrival, deadline_us=deadline,
            request_id=self.assign_id(sreq.request_id))
