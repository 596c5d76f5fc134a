"""Rolling-window studies: incremental reduction over an unbounded feed.

A batch study reduces a finite ensemble once; a standing watch must
answer "violation rate over the last hour, sliced by feeder and hour"
*continuously* while the feed never ends.  This module does that by
keeping one :class:`~repro.scenarios.aggregate.SlicedReducer` per *open*
window: a result at tick ``t`` folds into every window covering ``t``
(at most ``size/slide`` of them), and a window is closed — its
aggregate emitted, its reducer evicted — as soon as a result at or past
its end boundary arrives.  Peak memory is therefore
O(open windows x reducer) = O(window + K slices), never O(feed), and the
per-window aggregates inherit the reducer's bit-identical determinism.

Window semantics:

* windows are half-open tick ranges ``[index * slide, index * slide + size)``,
  tumbling when ``slide == size`` (the default), sliding when
  ``slide < size`` (``size`` must be a multiple of ``slide``);
* windows close strictly in index order, and ticks nobody reported
  still produce (empty) window results — silence is data on a feed;
* results may arrive out of order *within* the open horizon: anything
  covering a still-open window folds normally, anything older than
  every open window is counted in ``n_late_dropped`` rather than
  silently mutating history.

Window rollups feed the metrics/health spine: :func:`telemetry_rules`
declares the anomaly/violation/late-drop :class:`HealthRule`s that turn
per-window gauges into alerts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

from ..instrumentation.health import HealthRule
from ..scenarios.aggregate import (
    DEFAULT_SLICE_MAX_VALUES,
    EXACT_STATS_CAP,
    SlicedReducer,
    SliceSpec,
)

#: Default slice dimensions for windowed telemetry studies: the feeder
#: label from the network's zone metadata plus the profile hour.
DEFAULT_WINDOW_SLICES = ("feeder", "hour_of_day")

#: Tag values meaning "this result carried no anomaly".
_NO_ANOMALY = (None, "", "none", False, "False")


@dataclass(frozen=True)
class WindowSpec:
    """Shape of the rolling windows: size, slide, slice dimensions."""

    size_ticks: int
    slide_ticks: int | None = None  # None -> tumbling (== size)
    slice_by: tuple[str, ...] = DEFAULT_WINDOW_SLICES
    max_values: int = DEFAULT_SLICE_MAX_VALUES

    def __post_init__(self) -> None:
        if self.size_ticks < 1:
            raise ValueError(f"size_ticks must be >= 1, got {self.size_ticks}")
        slide = self.slide_ticks if self.slide_ticks is not None else self.size_ticks
        if not 1 <= slide <= self.size_ticks:
            raise ValueError(
                f"slide_ticks must be in [1, size_ticks], got {slide}"
            )
        if self.size_ticks % slide != 0:
            raise ValueError(
                f"size_ticks ({self.size_ticks}) must be a multiple of "
                f"slide_ticks ({slide})"
            )
        object.__setattr__(self, "slide_ticks", slide)
        object.__setattr__(self, "slice_by", tuple(self.slice_by))

    def slice_spec(self) -> SliceSpec:
        return SliceSpec(by=self.slice_by, max_values=self.max_values)

    def start(self, index: int) -> int:
        return index * self.slide_ticks

    def end(self, index: int) -> int:
        return index * self.slide_ticks + self.size_ticks

    def covering(self, tick: int) -> range:
        """Indices of every window whose ``[start, end)`` contains ``tick``."""
        if tick < 0:
            raise ValueError(f"tick must be >= 0, got {tick}")
        slide = self.slide_ticks
        last = tick // slide
        first = max(0, (tick - self.size_ticks) // slide + 1)
        return range(first, last + 1)

    @property
    def max_open(self) -> int:
        """Most windows that can be open at once: size / slide."""
        return self.size_ticks // self.slide_ticks


@dataclass
class WindowResult:
    """One closed window's aggregate (the reducer is gone by now)."""

    index: int
    start_tick: int
    end_tick: int  # exclusive
    n_results: int
    n_converged: int
    n_errors: int
    n_anomalous: int
    violation_rate: float
    anomaly_rate: float
    aggregate: dict | None  # StudyAggregate.to_dict(), None when empty
    slices: dict | None

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "n_results": self.n_results,
            "n_converged": self.n_converged,
            "n_errors": self.n_errors,
            "n_anomalous": self.n_anomalous,
            "violation_rate": round(self.violation_rate, 4),
            "anomaly_rate": round(self.anomaly_rate, 4),
        }
        if self.aggregate is not None:
            out["aggregate"] = self.aggregate
        if self.slices is not None:
            out["slices"] = self.slices
        return out


@dataclass
class _OpenWindow:
    reducer: SlicedReducer
    n_anomalous: int = 0


@dataclass
class RollingWindowStudy:
    """Fold tick-tagged results into rolling windows; emit them on close.

    ``add`` returns the windows the new result *closed* (often empty,
    occasionally several when the feed skipped ticks); ``finalize``
    flushes whatever is still open at end of feed.  Results must carry a
    ``"tick"`` tag — the tick is the event time the windows are defined
    over, so the study works identically for live and replayed feeds.
    """

    spec: WindowSpec
    exact_cap: int = EXACT_STATS_CAP
    _open: dict[int, _OpenWindow] = field(default_factory=dict)
    _closed_through: int = -1  # highest closed window index
    _max_tick_seen: int = -1
    n_results: int = 0
    n_late_dropped: int = 0
    n_windows_closed: int = 0
    peak_open_windows: int = 0

    # ------------------------------------------------------------------
    def _ensure(self, index: int) -> _OpenWindow:
        window = self._open.get(index)
        if window is None:
            window = self._open[index] = _OpenWindow(
                reducer=SlicedReducer(self.spec.slice_spec(), exact_cap=self.exact_cap)
            )
            if len(self._open) > self.peak_open_windows:
                self.peak_open_windows = len(self._open)
        return window

    def _close(self, index: int) -> WindowResult:
        window = self._open.pop(index, None)
        self._closed_through = index
        self.n_windows_closed += 1
        start, end = self.spec.start(index), self.spec.end(index)
        if window is None:
            return WindowResult(
                index=index, start_tick=start, end_tick=end,
                n_results=0, n_converged=0, n_errors=0, n_anomalous=0,
                violation_rate=0.0, anomaly_rate=0.0,
                aggregate=None, slices=None,
            )
        agg = window.reducer.result()
        n = agg.n_scenarios
        agg_dict = agg.to_dict()
        slices = agg_dict.pop("slices", None)
        return WindowResult(
            index=index,
            start_tick=start,
            end_tick=end,
            n_results=n,
            n_converged=agg.n_converged,
            n_errors=agg.n_errors,
            n_anomalous=window.n_anomalous,
            violation_rate=agg.violation_rate,
            anomaly_rate=window.n_anomalous / n if n else 0.0,
            aggregate=agg_dict,
            slices=slices,
        )

    def advance_to(self, tick: int) -> list[WindowResult]:
        """Close every window whose end boundary is at or before ``tick``.

        Boundary exactness: a window ``[start, end)`` closes the moment a
        result at tick ``end`` (or later) is observed — a result *at*
        ``end`` belongs to the next window, never this one.
        """
        closed: list[WindowResult] = []
        next_index = self._closed_through + 1
        while self.spec.end(next_index) <= tick:
            closed.append(self._close(next_index))
            next_index += 1
        return closed

    def add(self, result) -> list[WindowResult]:
        """Fold one tick-tagged result; return any windows this closed."""
        tags = getattr(result, "tags", None) or {}
        if "tick" not in tags:
            raise ValueError(
                "rolling-window results must carry a 'tick' tag "
                f"(got tags {sorted(tags)!r})"
            )
        tick = int(tags["tick"])
        closed: list[WindowResult] = []
        if tick > self._max_tick_seen:
            self._max_tick_seen = tick
            closed = self.advance_to(tick)
        self.n_results += 1
        folded = False
        for index in self.spec.covering(tick):
            if index <= self._closed_through:
                continue  # this covering window already shipped
            self._ensure(index).reducer.add(result)
            if tags.get("anomaly") not in _NO_ANOMALY:
                self._open[index].n_anomalous += 1
            folded = True
        if not folded:
            self.n_late_dropped += 1
        return closed

    def add_many(self, results: Iterable) -> list[WindowResult]:
        closed: list[WindowResult] = []
        for result in results:
            closed.extend(self.add(result))
        return closed

    def finalize(self) -> list[WindowResult]:
        """Close everything still open (end of feed), in index order."""
        if self._max_tick_seen < 0 and not self._open:
            return []
        last = max(self._open, default=self._closed_through)
        closed: list[WindowResult] = []
        next_index = self._closed_through + 1
        while next_index <= last:
            closed.append(self._close(next_index))
            next_index += 1
        return closed

    @property
    def n_open(self) -> int:
        return len(self._open)


def windows_digest(windows: Iterable[WindowResult | dict]) -> str:
    """Canonical digest of a window sequence (determinism checks).

    sha256 over the sorted-key JSON of every window dict — two watch
    runs agree on this iff their per-window aggregates are bit-identical.
    """
    payload = [
        w.to_dict() if isinstance(w, WindowResult) else w for w in windows
    ]
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# health-spine glue
# ----------------------------------------------------------------------
def telemetry_rules(
    *,
    violation_warn: float = 0.20,
    violation_crit: float = 0.50,
    anomaly_warn: float = 0.05,
    anomaly_crit: float = 0.25,
    late_warn: float = 0.05,
    late_crit: float = 0.25,
) -> list[HealthRule]:
    """Health rules that turn window rollups into alert-worthy signals.

    Evaluated against the telemetry gauges/counters the watch loop
    publishes after every closed window, so an injected anomaly travels
    frame -> window reducer -> gauge -> rule -> alert with no bespoke
    detection path.
    """
    return [
        HealthRule(
            name="telemetry_window_violation_rate",
            kind="value",
            metric="gridmind_telemetry_window_violation_rate",
            warn=violation_warn,
            crit=violation_crit,
            help="latest window's limit-violation rate over converged ticks",
        ),
        HealthRule(
            name="telemetry_anomaly_rate",
            kind="value",
            metric="gridmind_telemetry_window_anomaly_rate",
            warn=anomaly_warn,
            crit=anomaly_crit,
            help="latest window's fraction of ticks flagged anomalous (frames or dropout)",
        ),
        HealthRule(
            name="telemetry_late_drop_rate",
            kind="ratio",
            metric="gridmind_telemetry_late_results_total",
            denominator="gridmind_telemetry_results_total",
            warn=late_warn,
            crit=late_crit,
            window_s=None,
            help="fraction of feed results arriving too late for any open window",
        ),
    ]
