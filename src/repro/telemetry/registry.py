"""Metric primitives and the scoped metrics registry.

A :class:`MetricsRegistry` owns named :class:`Counter`, :class:`Gauge` and
:class:`Histogram` instruments.  Registries are *explicitly scoped*: a run
(or a sweep) constructs its own, so two concurrent scenario runs never
share metric state.  A process-wide default exists for code that has no
natural owner to thread a registry through (the orchestrator's sweep
accounting); it starts as the :data:`NULL_REGISTRY` no-op shim, so a
process that never enables telemetry pays a single attribute lookup and a
no-op call per instrumentation point — nothing else.

Determinism rules (regression-tested):

- instruments never read wall-clocks, never consume RNG and never
  schedule simulation events — observing a value is pure arithmetic;
- histogram bucket edges are fixed at construction, so two runs of the
  same scenario bucket identically regardless of the data order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DURATION_EDGES_S",
    "DISTANCE_EDGES_M",
    "COUNT_EDGES",
]

#: Fixed bucket edges for wall/sim durations in seconds (log-ish spacing).
DURATION_EDGES_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 600.0,
)

#: Fixed bucket edges for distances/spreads in metres.
DISTANCE_EDGES_M: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0,
)

#: Fixed bucket edges for small event counts (beacons per window, ...).
COUNT_EDGES: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0,
)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(
                "counter %s cannot decrease (amount=%r)" % (self.name, amount)
            )
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%s=%g)" % (self.name, self.value)


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self.value:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (live up/down counts: sessions,
        robots — increment on create, decrement on evict)."""
        self.value += float(delta)

    def __repr__(self) -> str:
        return "Gauge(%s=%g)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket histogram with cumulative-style quantile estimates.

    Bucket edges are frozen at construction (*determinism*: the same
    observations always produce the same bucket counts, independent of
    arrival order or platform).  An observation larger than the last edge
    lands in the implicit overflow bucket.
    """

    __slots__ = ("name", "edges", "bucket_counts", "count", "sum", "_min", "_max")

    def __init__(
        self, name: str, edges: Sequence[float] = DURATION_EDGES_S
    ) -> None:
        if not edges:
            raise ValueError("histogram %s needs at least one edge" % name)
        ordered = tuple(float(e) for e in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                "histogram %s edges must be strictly increasing: %r"
                % (name, edges)
            )
        self.name = name
        self.edges = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        # Linear scan: the edge lists are short (<= ~20) and a branchless
        # bisect buys nothing at this size while costing an import.
        index = 0
        for edge in self.edges:
            if value <= edge:
                break
            index += 1
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation inside the
        bucket that contains it.

        The estimate is exact at bucket edges and within one bucket width
        elsewhere — plenty for progress lines and reports.  Returns 0.0
        with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % q)
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = self._min if self._min is not None else 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            upper = (
                self.edges[index]
                if index < len(self.edges)
                else (self._max if self._max is not None else self.edges[-1])
            )
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                return lower + (min(upper, self._max or upper) - lower) * fraction
            cumulative += bucket_count
            lower = upper
        return self._max if self._max is not None else 0.0

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%.4g)" % (
            self.name, self.count, self.mean,
        )


class MetricsRegistry:
    """A named, memoizing home for instruments.

    ``counter(name)`` (and friends) return the *same* instrument on every
    call, so instrumentation sites need no module-level instrument
    variables — asking the registry is cheap and allocation-free after
    the first call.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, edges: Sequence[float] = DURATION_EDGES_S
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, edges)
        return instrument

    def counters(self) -> Iterable[Counter]:
        return self._counters.values()

    def metrics(self) -> Dict[str, float]:
        """Flatten every instrument into a sorted scalar mapping.

        Histograms expand into ``<name>_count`` / ``<name>_sum`` /
        ``<name>_p50`` / ``<name>_p90`` — the scalars reports and JSONL
        streams want; the raw bucket counts stay on the instrument for
        exporters that need them.
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name + "_count"] = float(histogram.count)
            out[name + "_sum"] = histogram.sum
            out[name + "_p50"] = histogram.quantile(0.5)
            out[name + "_p90"] = histogram.quantile(0.9)
        return dict(sorted(out.items()))


class _NullInstrument:
    """Absorbs every instrument operation at near-zero cost."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    edges: Tuple[float, ...] = ()
    bucket_counts: List[int] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled-telemetry shim: every instrument is a shared no-op.

    Instrumentation sites can hold a reference and call through without
    any ``if enabled`` branches; the benchmark suite verifies the
    overhead is within noise of not instrumenting at all.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, edges: Sequence[float] = DURATION_EDGES_S
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counters(self) -> Tuple:
        return ()

    def metrics(self) -> Dict[str, float]:
        return {}


#: The shared disabled-mode shim.
NULL_REGISTRY = NullRegistry()
