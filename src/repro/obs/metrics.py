"""Metrics primitives: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per observed system holds every metric
family the runtime and simulator emit (see the catalog registered by
:class:`~repro.obs.recorder.Observability`). Families support a small,
Prometheus-compatible label model — labels are keyword arguments at
observation time, and each distinct label combination is one time
series. Export paths:

* :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.to_json` —
  machine-readable snapshots for scripts;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (verified round-trippable through
  :func:`parse_prometheus`);
* :meth:`MetricsRegistry.format_summary` — the human-readable table
  ``flep stats`` prints.

The module is dependency-free and never touches simulator state: values
flow in only through the instrumentation hooks.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError

#: Backwards-friendly alias — every metrics failure is an
#: :class:`~repro.errors.ObservabilityError`.
MetricsError = ObservabilityError


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (microseconds) sized for preemption-scale
#: latencies: FLEP drains are tens to thousands of µs.
DEFAULT_US_BUCKETS: Tuple[float, ...] = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


def _label_key(
    label_names: Tuple[str, ...], labels: Dict[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise MetricsError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[n]) for n in label_names)


class MetricFamily:
    """Base class: a named metric with fixed label names."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        for ln in label_names:
            if not _LABEL_RE.match(ln):
                raise MetricsError(f"invalid label name {ln!r}")
        self.label_names: Tuple[str, ...] = tuple(label_names)

    # subclasses fill these ------------------------------------------------
    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """Flat list of ``(sample_name, labels, value)`` for export."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    def _labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))


class Counter(MetricFamily):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help, label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def samples(self):
        return [
            (self.name, self._labels_of(k), v)
            for k, v in sorted(self._values.items())
        ]

    def as_dict(self):
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [
                {"labels": self._labels_of(k), "value": v}
                for k, v in sorted(self._values.items())
            ],
        }


class Gauge(MetricFamily):
    """A value that can go up and down (queue depth, residency)."""

    kind = "gauge"

    def __init__(self, name, help, label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(self.label_names, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def samples(self):
        return [
            (self.name, self._labels_of(k), v)
            for k, v in sorted(self._values.items())
        ]

    def as_dict(self):
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [
                {"labels": self._labels_of(k), "value": v}
                for k, v in sorted(self._values.items())
            ],
        }


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(MetricFamily):
    """Fixed-bucket histogram (upper bounds; +Inf bucket is implicit)."""

    kind = "histogram"

    def __init__(
        self,
        name,
        help,
        label_names=(),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(buckets if buckets is not None else DEFAULT_US_BUCKETS)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                f"histogram {name}: buckets must be sorted and distinct"
            )
        if any(math.isinf(b) for b in bounds):
            raise MetricsError(
                f"histogram {name}: the +Inf bucket is implicit"
            )
        self.buckets: Tuple[float, ...] = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.label_names, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                len(self.buckets) + 1
            )
        idx = len(self.buckets)  # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series.bucket_counts[idx] += 1
        series.sum += value
        series.count += 1

    # -- queries -----------------------------------------------------------
    def count(self, **labels) -> int:
        s = self._series.get(_label_key(self.label_names, labels))
        return s.count if s else 0

    def sum(self, **labels) -> float:
        s = self._series.get(_label_key(self.label_names, labels))
        return s.sum if s else 0.0

    def bucket_counts(self, **labels) -> List[int]:
        """Per-bucket (not cumulative) counts of one series, +Inf last."""
        s = self._series.get(_label_key(self.label_names, labels))
        return list(s.bucket_counts) if s else [0] * (len(self.buckets) + 1)

    def mean(self, **labels) -> float:
        s = self._series.get(_label_key(self.label_names, labels))
        if not s or s.count == 0:
            return 0.0
        return s.sum / s.count

    def quantile(self, q: float, **labels) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        containing the q-th observation; last finite bound for +Inf)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} out of [0, 1]")
        s = self._series.get(_label_key(self.label_names, labels))
        if not s or s.count == 0:
            return 0.0
        rank = q * s.count
        cum = 0
        for i, n in enumerate(s.bucket_counts):
            cum += n
            if cum >= rank and n:
                return (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else self.buckets[-1]
                )
        return self.buckets[-1]

    def samples(self):
        out = []
        for key, s in sorted(self._series.items()):
            labels = self._labels_of(key)
            cum = 0
            for bound, n in zip(self.buckets, s.bucket_counts):
                cum += n
                le = {"le": _format_bound(bound)}
                out.append((f"{self.name}_bucket", {**labels, **le}, float(cum)))
            out.append(
                (f"{self.name}_bucket", {**labels, "le": "+Inf"}, float(s.count))
            )
            out.append((f"{self.name}_sum", dict(labels), s.sum))
            out.append((f"{self.name}_count", dict(labels), float(s.count)))
        return out

    def as_dict(self):
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": self._labels_of(k),
                    "bucket_counts": list(s.bucket_counts),
                    "sum": s.sum,
                    "count": s.count,
                }
                for k, s in sorted(self._series.items())
            ],
        }


def _format_bound(bound: float) -> str:
    """Prometheus renders integral bounds without a trailing .0."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class MetricsRegistry:
    """Get-or-create home of every metric family."""

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------
    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(
                label_names
            ):
                raise MetricsError(
                    f"metric {name!r} re-registered with a different "
                    f"type/labels"
                )
            return existing
        family = cls(name, help, label_names, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name, help="", label_names=()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name, help="", label_names=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self, name, help="", label_names=(), buckets=None
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    # -- access ------------------------------------------------------------
    def get(self, name: str) -> MetricFamily:
        if name not in self._families:
            raise MetricsError(f"unknown metric {name!r}")
        return self._families[name]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterable[MetricFamily]:
        return iter(self._families.values())

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    # -- export ------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            name: fam.as_dict()
            for name, fam in sorted(self._families.items())
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._families):
            fam = self._families[name]
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for sample_name, labels, value in fam.samples():
                if labels:
                    rendered = ",".join(
                        f'{k}="{_escape_label_value(v)}"'
                        for k, v in labels.items()
                    )
                    lines.append(f"{sample_name}{{{rendered}}} {value:g}")
                else:
                    lines.append(f"{sample_name} {value:g}")
        return "\n".join(lines) + "\n"

    def format_summary(self) -> str:
        """Human-readable snapshot, one block per family."""
        lines: List[str] = []
        for name in sorted(self._families):
            fam = self._families[name]
            if isinstance(fam, Histogram):
                if not fam._series:
                    lines.append(f"{name} (histogram): no observations")
                    continue
                for key, series in sorted(fam._series.items()):
                    suffix = _labels_suffix(fam._labels_of(key))
                    mean = series.sum / series.count if series.count else 0.0
                    labels = fam._labels_of(key)
                    lines.append(
                        f"{name}{suffix} (histogram): count={series.count} "
                        f"mean={mean:.1f} "
                        f"p50<={fam.quantile(0.5, **labels):g} "
                        f"p95<={fam.quantile(0.95, **labels):g} "
                        f"sum={series.sum:.1f}"
                    )
            else:
                samples = fam.samples()
                if not samples:
                    lines.append(f"{name} ({fam.kind}): 0")
                    continue
                for sample_name, labels, value in samples:
                    suffix = _labels_suffix(labels)
                    shown = f"{value:.6g}" if value != int(value) else f"{int(value)}"
                    lines.append(f"{sample_name}{suffix} ({fam.kind}): {shown}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every recorded value but keep the registered catalog."""
        for fam in self._families.values():
            if isinstance(fam, Histogram):
                fam._series.clear()
            else:
                fam._values.clear()


def _labels_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"


# ---------------------------------------------------------------------------
# Prometheus text-format parser (round-trip verification + tooling)
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse Prometheus text format into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs. Raises
    :class:`MetricsError` on malformed lines, so it doubles as a format
    validator in tests (the round-trip acceptance check).
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise MetricsError(f"unparseable sample on line {lineno}: {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = m.group("labels")
        if raw:
            consumed = 0
            for pm in _LABEL_PAIR_RE.finditer(raw):
                value = (
                    pm.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((pm.group("key"), value))
                consumed += len(pm.group(0))
            leftovers = raw.replace(",", "")
            if consumed < len(leftovers):
                raise MetricsError(
                    f"unparseable labels on line {lineno}: {raw!r}"
                )
        try:
            if m.group("value") == "+Inf":
                value_f = math.inf
            elif m.group("value") == "-Inf":
                value_f = -math.inf
            else:
                value_f = float(m.group("value"))
        except ValueError:
            raise MetricsError(
                f"bad sample value on line {lineno}: {line!r}"
            ) from None
        key = (m.group("name"), tuple(sorted(labels)))
        if key in out:
            raise MetricsError(f"duplicate sample on line {lineno}: {line!r}")
        out[key] = value_f
    return out
