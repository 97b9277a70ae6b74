"""Priority + per-tenant-quota admission for the campaign service.

The campaign service multiplexes many concurrent campaigns over one shared
backend roster.  Raw :class:`~repro.runtime.scheduler.BackendScheduler` slot
accounting is not enough for that: a burst of shard launches from one tenant
would starve everyone else, and two campaigns racing for the last slot would
resolve in event-loop wakeup order — unobservable and unreproducible.  This
module supplies the missing policy layer, split so it stays testable:

* :class:`QuotaQueue` is the **synchronous, deterministic core**: a waiting
  list of :class:`Ticket` admission requests ordered by (priority desc,
  submission order), with per-tenant quotas (max concurrently *granted*
  admissions per tenant).  Given the same submission/grant/release sequence
  it always makes the same decisions — which is exactly what the Hypothesis
  property suite (``tests/properties/test_property_service_queue.py``)
  drives at random.
* :class:`ServiceDispatcher` is the **asyncio shell**: one condition variable
  over a :class:`QuotaQueue` *and* a ``BackendScheduler``, so "who launches
  next" is decided by a single deterministic rule — the head ticket of the
  queue proceeds as soon as a backend slot it may use frees up — instead of
  by which coroutine the event loop happens to wake first.  Every grant is
  appended to :attr:`ServiceDispatcher.dispatch_log` under the same lock, so
  the log order *is* the grant order.

A ticket whose tenant is at quota is skipped over (the next eligible ticket
is the head) rather than blocking the queue — quotas bound tenants, they must
never deadlock the service.  Within one tenant, and across tenants below
quota, higher priority always dispatches first and equal priority dispatches
in submission order, so no ticket is starved: every release re-examines the
queue from the top.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.backends import ExecutionBackend
from repro.runtime.scheduler import BackendScheduler


class QuotaError(ValueError):
    """An admission request or quota table was invalid.

    ``usage`` is the same complaint in command-line terms, as ``serve``
    reports it.
    """

    def __init__(self, message: str, usage: Optional[str] = None) -> None:
        super().__init__(message)
        self.usage = usage or message


@dataclass(frozen=True)
class Ticket:
    """One pending admission request (one shard launch wanting to start).

    ``seq`` is the service-wide submission sequence number; together with
    ``priority`` it totally orders tickets (see :attr:`sort_key`), which is
    what makes dispatch deterministic.
    """

    seq: int
    tenant: str
    priority: int

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Total dispatch order: higher priority first, then submission order."""
        return (-self.priority, self.seq)


class QuotaQueue:
    """Deterministic priority queue with per-tenant concurrency quotas.

    Purely synchronous: callers :meth:`submit` a ticket, ask which ticket is
    :meth:`grantable` right now, :meth:`grant` it when its launch proceeds,
    and :meth:`release` the tenant's slot when the launch finishes.  The
    async layering (waiting for a grant) lives in
    :class:`ServiceDispatcher`, keeping this core property-testable without
    an event loop.
    """

    def __init__(
        self,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
    ) -> None:
        for tenant, quota in (quotas or {}).items():
            if quota < 1:
                raise QuotaError(
                    f"quota for tenant {tenant!r} must be >= 1, got {quota}",
                    "--quota caps must be >= 1",
                )
        if default_quota is not None and default_quota < 1:
            raise QuotaError(
                f"default quota must be >= 1, got {default_quota}", "--default-quota must be >= 1"
            )
        self._quotas: Dict[str, int] = dict(quotas or {})
        self._default_quota = default_quota
        self._sequence = itertools.count(1)
        self._waiting: List[Ticket] = []
        self._granted: Dict[str, int] = {}

    # ------------------------------------------------------------------ state
    def quota(self, tenant: str) -> Optional[int]:
        """The concurrency quota of ``tenant`` (``None`` = unbounded)."""
        return self._quotas.get(tenant, self._default_quota)

    def granted(self, tenant: str) -> int:
        """How many admissions ``tenant`` currently holds."""
        return self._granted.get(tenant, 0)

    @property
    def waiting(self) -> List[Ticket]:
        """The pending tickets in dispatch order (a copy)."""
        return sorted(self._waiting, key=lambda ticket: ticket.sort_key)

    def describe_quotas(self) -> List[Tuple[str, str, int]]:
        """Rows of ``(tenant, quota, in_use)`` for every known tenant, sorted.

        Tenants appear once they have an explicit quota or have ever held an
        admission; the default quota is rendered under the pseudo-tenant
        ``*`` when set.
        """
        tenants = sorted(set(self._quotas) | set(self._granted))
        rows = []
        if self._default_quota is not None:
            rows.append(("*", str(self._default_quota), 0))
        for tenant in tenants:
            quota = self.quota(tenant)
            rows.append((tenant, "unbounded" if quota is None else str(quota), self.granted(tenant)))
        return rows

    # ------------------------------------------------------------- transitions
    def submit(self, tenant: str, priority: int = 0) -> Ticket:
        """Enqueue one admission request and return its ticket."""
        if not tenant:
            raise QuotaError("tenant must be a non-empty string")
        ticket = Ticket(seq=next(self._sequence), tenant=str(tenant), priority=int(priority))
        self._waiting.append(ticket)
        return ticket

    def withdraw(self, ticket: Ticket) -> None:
        """Remove a pending ticket (the requester was cancelled); idempotent."""
        try:
            self._waiting.remove(ticket)
        except ValueError:
            pass

    def has_headroom(self, tenant: str) -> bool:
        """Whether ``tenant`` may hold one more admission right now."""
        quota = self.quota(tenant)
        return quota is None or self.granted(tenant) < quota

    def grantable(self) -> Optional[Ticket]:
        """The single ticket that dispatches next, or ``None``.

        The best-ordered ticket (priority desc, then submission order) whose
        tenant has quota headroom.  Quota-blocked tickets are *skipped*, not
        waited on: a saturated tenant never holds up the rest of the queue.
        """
        eligible = [t for t in self._waiting if self.has_headroom(t.tenant)]
        if not eligible:
            return None
        return min(eligible, key=lambda ticket: ticket.sort_key)

    def grant(self, ticket: Ticket) -> None:
        """Mark a pending ticket as dispatched, consuming tenant headroom."""
        if ticket not in self._waiting:
            raise QuotaError(f"ticket {ticket} is not pending")
        if not self.has_headroom(ticket.tenant):
            raise QuotaError(
                f"tenant {ticket.tenant!r} is at quota "
                f"({self.granted(ticket.tenant)}/{self.quota(ticket.tenant)})"
            )
        self._waiting.remove(ticket)
        self._granted[ticket.tenant] = self.granted(ticket.tenant) + 1

    def release(self, tenant: str) -> None:
        """Return one of ``tenant``'s granted admissions."""
        if self.granted(tenant) < 1:
            raise QuotaError(f"release without grant for tenant {tenant!r}")
        self._granted[tenant] -= 1


class ServiceDispatcher:
    """Asyncio dispatcher fusing quota admission with backend slot assignment.

    One :class:`asyncio.Condition` guards both the :class:`QuotaQueue` and
    the wrapped :class:`~repro.runtime.scheduler.BackendScheduler`, so the
    decision "which waiting launch takes the slot that just freed" has
    exactly one answer: the queue's current :meth:`~QuotaQueue.grantable`
    head, as soon as a backend it may use has a free slot.  The scheduler's
    own most-free-slots backend choice is unchanged — this class decides
    *who* goes next, the scheduler still decides *where*.
    """

    def __init__(
        self,
        scheduler: BackendScheduler,
        *,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
    ) -> None:
        self.scheduler = scheduler
        self.queue = QuotaQueue(quotas, default_quota)
        self._condition = asyncio.Condition()
        #: Every grant, in grant order: dicts of at least ``tenant``,
        #: ``priority``, ``backend`` plus whatever ``meta`` the acquirer
        #: attached (the service attaches campaign id and label).
        self.dispatch_log: List[dict] = []

    async def acquire(
        self,
        tenant: str,
        priority: int = 0,
        *,
        avoid: Optional[ExecutionBackend] = None,
        meta: Optional[dict] = None,
    ) -> ExecutionBackend:
        """Wait until this request is the dispatch head, then take a slot.

        Returns the backend the launch should run on.  On cancellation the
        pending ticket is withdrawn, so a cancelled campaign never wedges
        the queue.
        """
        async with self._condition:
            ticket = self.queue.submit(tenant, priority)
            try:
                while True:
                    if self.queue.grantable() is ticket:
                        backend = self.scheduler.try_acquire(avoid=avoid)
                        if backend is not None:
                            self.queue.grant(ticket)
                            self.dispatch_log.append(
                                {
                                    **(meta or {}),
                                    "tenant": ticket.tenant,
                                    "priority": ticket.priority,
                                    "backend": backend.name,
                                }
                            )
                            self._condition.notify_all()
                            return backend
                    await self._condition.wait()
            except asyncio.CancelledError:
                self.queue.withdraw(ticket)
                self._condition.notify_all()
                raise

    async def release(self, tenant: str, backend: ExecutionBackend) -> None:
        """Return a backend slot and the tenant's admission; wake waiters."""
        async with self._condition:
            self.scheduler.release_nowait(backend)
            self.queue.release(tenant)
            self._condition.notify_all()

    def has_headroom(self, tenant: str, *, avoid: Optional[ExecutionBackend] = None) -> bool:
        """Whether an ``acquire`` for ``tenant`` could proceed without waiting."""
        return self.queue.has_headroom(tenant) and self.scheduler.has_free_slot(avoid=avoid)


__all__ = ["QuotaError", "QuotaQueue", "ServiceDispatcher", "Ticket"]
