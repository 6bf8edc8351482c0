"""The minimal engine interface the rest of the library programs against.

Everything above the simulator core — the network model, protocol agents,
timers, observability — only ever touches the surface captured here:
a virtual clock, scheduling primitives, named RNG streams and the tracer.
:class:`repro.sim.scheduler.Simulator` is the reference implementation;
:mod:`repro.engine.sharded` builds zone-parallel execution out of many
reference engines without any caller noticing a difference.

Contract highlights (pinned by ``tests/test_sim_contract.py``):

* The clock never moves backwards.  ``run(until=t)`` executes every event
  with ``time <= t`` and leaves ``now == t`` even when the queue empties
  early, so fixed-horizon runs always end at the same instant.
* Scheduling in the past raises; zero delay is legal and fires in
  scheduling order (global tie-break sequence).
* ``stop()`` only interrupts ``run()`` — ``step()`` still fires events
  afterwards, and a subsequent ``run()`` clears the stop flag.
* ``reschedule`` re-arms *pending* events only; ``rearm`` re-arms *fired*
  events only; both raise ``ValueError`` on cancelled events.
* ``reset(seed)`` rewinds the clock, empties the queue *and* resets the
  tie-break counter, so a re-run with the same seed replays event order
  bit-identically.
* ``rng.stream(name)`` is derived from ``(seed, name)`` only — stream
  creation order never changes the draws, which is what lets a sharded
  engine hand each shard its own streams and still match a fixed seed.
* ``events_fired`` counts every packet arrival as one event, and is exact
  whenever it is read, also from a callback during ``run()``.  Forwarding
  may carry a same-instant multicast fan-out (siblings whose separate
  entries would have had consecutive sequence numbers) in one heap entry,
  so ``pending``, ``step()`` and ``max_events`` count heap entries, and
  ``stop()`` called inside such a fan-out lets its remaining siblings
  deliver before ``run()`` returns.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@runtime_checkable
class Engine(Protocol):
    """Structural protocol for a discrete-event engine.

    ``isinstance`` checks verify only method presence (``Protocol``
    semantics); the behavioural contract is documented in the module
    docstring and enforced by the contract test suite.
    """

    rng: RngRegistry
    tracer: Tracer

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        ...

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (each packet arrival is one)."""
        ...

    @property
    def pending(self) -> int:
        """Number of live heap entries still queued."""
        ...

    @property
    def queue(self) -> EventQueue:
        """The underlying event queue (hot paths may push directly)."""
        ...

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        ...

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        ...

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        ...

    def cancel(self, event: Event) -> None:
        ...

    def reschedule(self, event: Event, delay: float) -> Event:
        ...

    def reschedule_at(self, event: Event, time: float) -> Event:
        ...

    def rearm(self, event: Event, delay: float) -> Event:
        ...

    def rearm_at(self, event: Event, time: float) -> Event:
        ...

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        ...

    def stop(self) -> None:
        ...

    def step(self) -> bool:
        ...

    def reset(self, seed: Optional[int] = None) -> None:
        ...
