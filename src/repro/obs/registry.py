"""Metrics registry: Counters, Gauges, Histograms with label support.

The operational counterpart of :mod:`repro.experiments.quality` (which
scores detection *quality*): this module counts what the engine *does* —
frames, footprints, events, alerts, per-stage latencies — so capacity
and hot-path questions ("where do frames spend time?", "how much state
has accumulated?") have answers.  Dependency-free by design: metrics
render to the Prometheus text exposition format and to plain JSON, so
any scraper or script can consume them.

Usage::

    registry = MetricsRegistry()
    frames = registry.counter("scidive_frames_total", "Frames ingested")
    frames.inc()
    by_proto = registry.counter(
        "scidive_footprints_total", "Footprints distilled", labelnames=("protocol",)
    )
    by_proto.labels(protocol="sip").inc()
    print(registry.render_prometheus())
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from math import ceil as _ceil, log as _log
from typing import Any, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Latency-oriented default buckets: 1 µs .. 1 s (seconds).
DEFAULT_BUCKETS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0,
)


class MetricError(ValueError):
    """Bad metric name, label, or type collision."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise MetricError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names: {names}")
    return names


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _labels_repr(labels: dict) -> str:
    if not labels:
        return ""
    names = tuple(labels)
    return _format_labels(names, tuple(str(labels[n]) for n in names))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base: one named family of children (one child per label set)."""

    typename = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    # -- children -----------------------------------------------------------

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues: str):
        """Get (or create) the child for one concrete label combination."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricError(f"{self.name} has labels {self.labelnames}; use .labels()")
        return self._children[()]

    # -- rendering ------------------------------------------------------------

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        """Flat (suffix, labels, value) samples, for exporters."""
        out = []
        for key, child in self._children.items():
            base = tuple(zip(self.labelnames, key))
            for suffix, extra, value in child._samples():
                out.append((suffix, base + extra, value))
        return out

    def as_dict(self) -> dict[str, Any]:
        series = []
        for key, child in self._children.items():
            series.append({
                "labels": dict(zip(self.labelnames, key)),
                **child._as_dict(),
            })
        return {"name": self.name, "type": self.typename, "help": self.help,
                "series": series}

    # -- merging --------------------------------------------------------------

    def merge(self, other: "Metric") -> None:
        """Fold another family's children into this one, label set by
        label set (cluster aggregation).  Families must agree on type
        and label names; histogram bucket bounds must match too."""
        if type(other) is not type(self):
            raise MetricError(
                f"{self.name}: cannot merge {other.typename} into {self.typename}"
            )
        if other.labelnames != self.labelnames:
            raise MetricError(
                f"{self.name}: label mismatch {other.labelnames} vs {self.labelnames}"
            )
        for key, child in other._children.items():
            mine = self._children.get(key)
            if mine is None:
                mine = self._new_child()
                self._children[key] = mine
            try:
                mine._merge(child)
            except MetricError as exc:
                # Children don't know their own name; a bare "bucket
                # bounds differ" from a 4-worker roll-up is undebuggable.
                raise MetricError(
                    f"{self.name}"
                    f"{_format_labels(self.labelnames, key)}: {exc}"
                ) from None


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up (got {amount})")
        self.value += amount

    def _samples(self):
        return [("", (), self.value)]

    def _as_dict(self):
        return {"value": self.value}

    def _merge(self, other: "_CounterChild") -> None:
        self.value += other.value

    def _merge_dict(self, data: dict) -> None:
        self.inc(float(data.get("value", 0.0)))


class Counter(Metric):
    """Monotonically increasing count."""

    typename = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _samples(self):
        return [("", (), self.value)]

    def _as_dict(self):
        return {"value": self.value}

    # Gauges merge by summation: worker gauges are sizes (live trails,
    # pending state), and the cluster-level answer is their total.
    def _merge(self, other: "_GaugeChild") -> None:
        self.value += other.value

    def _merge_dict(self, data: dict) -> None:
        self.value += float(data.get("value", 0.0))


class Gauge(Metric):
    """A value that can go up and down (sizes, in-flight counts)."""

    typename = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        # One extra slot absorbs over-range observations, so the hot-path
        # observe never bounds-checks; counts are non-cumulative here and
        # rendered cumulative (the +Inf bucket is just ``count``).
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self.counts[bisect_left(self.buckets, value)] += 1

    def _samples(self):
        out = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append(("_bucket", (("le", _format_value(bound)),), float(running)))
        out.append(("_bucket", (("le", "+Inf"),), float(self.count)))
        out.append(("_sum", (), self.sum))
        out.append(("_count", (), float(self.count)))
        return out

    def _as_dict(self):
        return {
            "sum": self.sum,
            "count": self.count,
            "buckets": {_format_value(b): c for b, c in zip(self.buckets, self.counts)},
        }

    def _merge(self, other: "_HistogramChild") -> None:
        if other.buckets != self.buckets:
            raise MetricError(
                f"histogram bucket bounds differ: {other.buckets} vs {self.buckets}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count

    def _merge_dict(self, data: dict) -> None:
        observed = data.get("buckets", {})
        bounds = tuple(sorted(float(b) for b in observed))
        if bounds != self.buckets:
            raise MetricError(
                f"histogram bucket bounds differ: {bounds} vs {self.buckets}"
            )
        in_range = 0
        for i, bound in enumerate(self.buckets):
            add = int(observed[_format_value(bound)])
            in_range += add
            self.counts[i] += add
        count = int(data.get("count", 0))
        # as_dict omits the over-range slot; it is count minus the rest.
        self.counts[-1] += count - in_range
        self.sum += float(data.get("sum", 0.0))
        self.count += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram(Metric):
    """Observation distribution with cumulative buckets (seconds by default)."""

    typename = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histograms need at least one bucket")
        if any(b != b or b == float("inf") for b in bounds):
            raise MetricError(f"bucket bounds must be finite: {bounds}")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum


# Relative-error target for Summary quantile sketches: an estimated
# quantile q̂ satisfies |q̂ - q| <= alpha * q for the true quantile q.
DEFAULT_SUMMARY_ALPHA = 0.01

# Quantiles rendered by default (Prometheus summary convention).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

# Observations below this are "zero" for sketching purposes: the log
# bucketing cannot represent 0, and sub-nanosecond latencies are clock
# noise anyway.
_SUMMARY_MIN_VALUE = 1e-9

# Bucket-count ceiling per child.  With alpha=1% the full 1 ns .. 1000 s
# latency range needs ~1380 buckets; the cap only bites on pathological
# value ranges, collapsing the smallest buckets first (quantile error
# stays one-sided: low quantiles round up toward the collapse floor).
_SUMMARY_MAX_BUCKETS = 2048


class _SummaryChild:
    """One label-set's streaming quantile sketch.

    A DDSketch-style log-bucketed sketch: an observation ``v`` lands in
    integer bucket ``ceil(log_gamma(v))`` where ``gamma = (1 + alpha) /
    (1 - alpha)``, which guarantees every value in a bucket is within
    relative error ``alpha`` of the bucket's representative value
    ``2 * gamma^k / (gamma + 1)``.  Unlike the P² estimator (whose five
    markers drift with arrival order and cannot be combined), bucket
    counts merge by plain addition — commutative and associative, which
    is exactly what the cluster's N-way worker roll-up needs.
    """

    __slots__ = ("gamma", "_inv_log_gamma", "buckets", "zeros",
                 "sum", "count", "min", "max")

    def __init__(self, gamma: float) -> None:
        self.gamma = gamma
        self._inv_log_gamma = 1.0 / math.log(gamma)
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        # Engine hot path: ~5 calls per frame.  Accepts ints too (the
        # += and comparisons coerce); the bucket-cap check only runs
        # when a *new* bucket appears, so steady state skips it.
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < _SUMMARY_MIN_VALUE:
            self.zeros += 1
            return
        key = _ceil(_log(value) * self._inv_log_gamma)
        buckets = self.buckets
        prev = buckets.get(key)
        if prev is None:
            buckets[key] = 1
            if len(buckets) > _SUMMARY_MAX_BUCKETS:
                self._collapse()
        else:
            buckets[key] = prev + 1

    def _collapse(self) -> None:
        """Fold the two smallest buckets together until under the cap."""
        keys = sorted(self.buckets)
        while len(keys) > _SUMMARY_MAX_BUCKETS:
            lowest = keys.pop(0)
            self.buckets[keys[0]] = (
                self.buckets.get(keys[0], 0) + self.buckets.pop(lowest)
            )

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1]: {q}")
        # Rank among the sketched observations, 1-based.
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return 0.0
        rank -= self.zeros
        running = 0
        gamma = self.gamma
        for key in sorted(self.buckets):
            running += self.buckets[key]
            if running >= rank:
                estimate = 2.0 * gamma ** key / (gamma + 1.0)
                # Clamp to the observed range: the top bucket's
                # representative can exceed the true max by up to alpha.
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _samples(self):
        out = [
            (
                "",
                (("quantile", _format_value(q)),),
                self.quantile(q),
            )
            for q in DEFAULT_QUANTILES
        ]
        out.append(("_sum", (), self.sum))
        out.append(("_count", (), float(self.count)))
        return out

    def _as_dict(self):
        return {
            "sum": self.sum,
            "count": self.count,
            "zeros": self.zeros,
            "gamma": self.gamma,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(k): c for k, c in self.buckets.items()},
            "quantiles": {
                _format_value(q): self.quantile(q) for q in DEFAULT_QUANTILES
            },
        }

    def _merge(self, other: "_SummaryChild") -> None:
        if not math.isclose(other.gamma, self.gamma, rel_tol=1e-12):
            raise MetricError(
                f"summary sketch resolution differs: gamma {other.gamma} "
                f"vs {self.gamma}"
            )
        for key, count in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + count
        if len(self.buckets) > _SUMMARY_MAX_BUCKETS:
            self._collapse()
        self.zeros += other.zeros
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def _merge_dict(self, data: dict) -> None:
        gamma = float(data.get("gamma", self.gamma))
        if not math.isclose(gamma, self.gamma, rel_tol=1e-12):
            raise MetricError(
                f"summary sketch resolution differs: gamma {gamma} "
                f"vs {self.gamma}"
            )
        for key, count in data.get("buckets", {}).items():
            key = int(key)
            self.buckets[key] = self.buckets.get(key, 0) + int(count)
        if len(self.buckets) > _SUMMARY_MAX_BUCKETS:
            self._collapse()
        self.zeros += int(data.get("zeros", 0))
        self.sum += float(data.get("sum", 0.0))
        self.count += int(data.get("count", 0))
        low, high = data.get("min"), data.get("max")
        if low is not None:
            self.min = min(self.min, float(low))
        if high is not None:
            self.max = max(self.max, float(high))


class Summary(Metric):
    """Streaming latency quantiles (p50/p90/p99) with mergeable sketches.

    ``alpha`` is the relative-error guarantee: an estimated quantile is
    within ``alpha`` (default 1%) of the true quantile's value.  Merging
    two summaries (cluster worker roll-up) sums their bucket counts, so
    the merged estimate is identical regardless of worker order or how
    observations were split across workers.
    """

    typename = "summary"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        alpha: float = DEFAULT_SUMMARY_ALPHA,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise MetricError(f"summary alpha must be in (0, 1): {alpha}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _SummaryChild:
        return _SummaryChild(self.gamma)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)

    def quantiles(self, qs: Iterable[float] = DEFAULT_QUANTILES) -> dict[float, float]:
        child = self._default_child()
        return {q: child.quantile(q) for q in qs}

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum


class MetricsRegistry:
    """Holds metric families; families are get-or-create by name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration ---------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            raise MetricError(f"metric already registered: {metric.name}")
        self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise MetricError(
                    f"{name} already registered as {metric.typename}, not {cls.typename}"
                )
            if metric.labelnames != tuple(labelnames):
                raise MetricError(
                    f"{name} already registered with labels {metric.labelnames}"
                )
            return metric
        return self.register(cls(name, help, labelnames, **kwargs))

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def summary(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        alpha: float = DEFAULT_SUMMARY_ALPHA,
    ) -> Summary:
        return self._get_or_create(Summary, name, help, labelnames, alpha=alpha)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one, family by family.

        Counters and gauges sum per label set; histograms sum bucket
        counts (bounds must match).  Used by the cluster to aggregate
        per-worker registries into one exporter-compatible view.
        Returns ``self`` so ``reduce``-style folds read naturally.
        """
        for metric in other:
            if isinstance(metric, Histogram):
                mine = self.histogram(
                    metric.name, metric.help, metric.labelnames, buckets=metric.buckets
                )
            elif isinstance(metric, Summary):
                mine = self.summary(
                    metric.name, metric.help, metric.labelnames, alpha=metric.alpha
                )
            elif isinstance(metric, Counter):
                mine = self.counter(metric.name, metric.help, metric.labelnames)
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help, metric.labelnames)
            else:
                raise MetricError(f"cannot merge metric type {type(metric).__name__}")
            mine.merge(metric)
        return self

    def merge_dict(self, payload: dict) -> "MetricsRegistry":
        """Fold an :meth:`as_dict` payload into this registry.

        This is the cross-process transport: worker processes ship their
        registry as a plain dict over the result queue and the cluster
        folds each payload here (no pickling of metric objects).
        """
        for entry in payload.get("metrics", []):
            series = entry.get("series", [])
            if not series:
                continue
            name = entry["name"]
            typename = entry.get("type", "untyped")
            help = entry.get("help", "")
            labelnames = tuple(series[0].get("labels", {}))
            if typename == "histogram":
                bounds = tuple(sorted(float(b) for b in series[0].get("buckets", {})))
                mine = self.histogram(name, help, labelnames, buckets=bounds)
            elif typename == "summary":
                gamma = float(series[0].get("gamma", 0.0))
                alpha = (
                    (gamma - 1.0) / (gamma + 1.0)
                    if gamma > 1.0 else DEFAULT_SUMMARY_ALPHA
                )
                mine = self.summary(name, help, labelnames, alpha=alpha)
            elif typename == "counter":
                mine = self.counter(name, help, labelnames)
            elif typename == "gauge":
                mine = self.gauge(name, help, labelnames)
            else:
                raise MetricError(f"cannot merge metric type {typename!r}")
            for sample in series:
                labels = sample.get("labels", {})
                child = mine.labels(**labels) if labels else mine._default_child()
                try:
                    child._merge_dict(sample)
                except MetricError as exc:
                    # Same debuggability contract as Metric.merge: a
                    # cross-process payload mismatch names its family
                    # and label set, not just the clashing bounds.
                    raise MetricError(f"{name}{_labels_repr(labels)}: {exc}") from None
        return self

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.typename}")
            for suffix, labels, value in metric.samples():
                names = tuple(k for k, _ in labels)
                values = tuple(v for _, v in labels)
                lines.append(
                    f"{metric.name}{suffix}{_format_labels(names, values)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> dict[str, Any]:
        return {"metrics": [m.as_dict() for m in
                            sorted(self._metrics.values(), key=lambda m: m.name)]}

    def render_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write_prometheus(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_prometheus())


# ---------------------------------------------------------------------------
# Process-global default registry
# ---------------------------------------------------------------------------

_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry (analogous to prometheus_client.REGISTRY)."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Minimal parser for the text format — used by tests and CI smoke
    checks to validate exporter output.  Returns
    ``{family: {sample_line_key: value}}`` where the key is the full
    sample name including labels."""
    families: dict[str, dict[str, float]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            current = line.split()[2]
            families.setdefault(current, {})
            continue
        if line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        if not key:
            raise ValueError(f"bad sample line: {line!r}")
        value = float(raw)
        base = key.split("{", 1)[0]
        family = base
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base.removesuffix(suffix) in families:
                family = base.removesuffix(suffix)
        if current is None or family not in families:
            raise ValueError(f"sample before TYPE line: {line!r}")
        families[family][key] = value
    return families
