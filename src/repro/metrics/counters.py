"""Named integer counters for protocol instrumentation."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Protocol


class Tally(Protocol):
    """Counts a hot path keeps in its own records, outside the named
    counters, and hands over on demand (see :meth:`Counters.defer`)."""

    def fold(self) -> None:
        """Add every pending amount to the named counters and zero it."""

    def forget(self) -> None:
        """Drop every record: the named counters are being cleared."""


class Counters:
    """A bag of named monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Counter[str] = Counter()
        self._tallies: list[Tally] = []

    def defer(self, tally: Tally) -> None:
        """Register a tally that every read folds in first.

        A hot path that would bump several counters per event can keep
        one record per event kind instead; ``get``, ``[]``, ``snapshot``,
        ``by_prefix``, ``total`` and ``clear`` fold (or forget) it before
        they look, so each read sees every event counted so far.
        Reading ``_values`` directly bypasses the fold.
        """
        self._tallies.append(tally)

    def _folded(self) -> Counter[str]:
        for tally in self._tallies:
            tally.fold()
        return self._values

    def inc(self, name: str, amount: int = 1) -> None:
        self._values[name] += amount

    def handle(self, name: str) -> Callable[[int], None]:
        """A pre-resolved increment callable for one counter.

        Hot paths (one increment per simulated datagram) pay for an
        f-string format plus a method lookup on every ``inc`` call;
        a handle resolves the name once so the per-event cost is a
        single dict ``__setitem__``.  Handles stay valid across
        :meth:`clear` — the backing mapping is cleared in place.
        """
        values = self._values

        def bump(amount: int = 1) -> None:
            values[name] += amount

        return bump

    def get(self, name: str) -> int:
        return self._folded().get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._folded())

    def by_prefix(self, prefix: str) -> dict[str, int]:
        """All counters under ``prefix``, keyed by the remaining suffix.

        ``by_prefix("net.sent.")`` returns e.g. ``{"fd": 120, "abcast": 48}``
        — the per-layer breakdown the benchmarks report.
        """
        return {
            name[len(prefix):]: value
            for name, value in self._folded().items()
            if name.startswith(prefix)
        }

    def total(self, prefix: str) -> int:
        """Sum of all counters under ``prefix``."""
        return sum(self.by_prefix(prefix).values())

    def clear(self) -> None:
        for tally in self._tallies:
            tally.forget()
        self._values.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._folded().items()))
        return f"Counters({items})"
