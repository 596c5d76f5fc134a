"""ResultStore: content-addressed, on-disk persistence of study results.

A batch study used to live only inside one session's
``AgentContext.study_summary`` — an aggregate, in memory, gone when the
process exits.  The store persists the *full per-scenario result set*
under a content-hash key::

    <network content hash>-<spec hash>

where the network hash covers the base operating point (loads, topology,
dispatch, limits) and the spec hash covers the study definition (analysis
config plus every scenario's perturbation records and tags).  The key is
therefore deterministic: re-running an identical study addresses the same
entry, while any change to the base case or the scenario family produces
a new one.  Any session — including a brand-new one — can list entries,
reload the exact :class:`~repro.scenarios.runner.ScenarioResult` records,
and answer "compare today's sweep with yesterday's".

Files are one JSON document per study (``<key>.json`` under the store
root), written atomically via a temp-file rename.  JSON round-trips
Python floats exactly (shortest-repr encoding), so a reloaded result set
is bit-identical to what the runner produced — a property the test suite
asserts.

Each study also gets a compact **aggregate-index sidecar**
(``<key>.index``): the full (possibly tag-sliced) ensemble aggregate
plus a small worst-scenario slice and the results checksum.  Aggregate
questions — :meth:`ResultStore.compare`, :meth:`latest_summary` —
answer from indexes alone, so their cost scales with the study *count*,
never the stored per-scenario result bytes; a missing or unreadable
index is rebuilt from the payload on demand, and :meth:`verify` reports
missing/stale indexes (optionally rebuilding them).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..grid.network import Network
from ..instrumentation.metrics import get_metrics
from ..scenarios.aggregate import (
    DEFAULT_SLICE_MAX_VALUES,
    SliceSpec,
    aggregate_study,
)
from ..scenarios.runner import ScenarioResult, StudyConfig, StudyResult
from ..scenarios.spec import Scenario

FORMAT = "gridmind-study-v1"
INDEX_FORMAT = "gridmind-study-index-v1"


def slice_spec_from_config(config: dict | None) -> SliceSpec:
    """Reconstruct a study's :class:`SliceSpec` from its stored config.

    Pre-slicing payloads have no ``slice_by`` entry and fall back to the
    empty spec, so old stores index (and re-aggregate) exactly as before.
    """
    config = config or {}
    return SliceSpec(
        by=tuple(config.get("slice_by") or ()),
        max_values=int(config.get("slice_max_values") or DEFAULT_SLICE_MAX_VALUES),
    )


class StudyNotFound(KeyError):
    """No stored study matches the requested key/label."""


def _results_digest(results: list[dict]) -> str:
    """Checksum of the serialised result records (for :meth:`verify`)."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def spec_hash(config: StudyConfig, scenarios: list[Scenario]) -> str:
    """Deterministic digest of a study definition (config + scenarios).

    The config contributes the fields it declares hashed
    (:meth:`~repro.scenarios.runner.StudyConfig.hashed_fields`), so a new
    knob states its own membership and old keys keep matching.
    """
    canon = {
        "config": config.hashed_fields(),
        "scenarios": [
            {
                "name": s.name,
                "tags": s.tags,
                "perturbations": [
                    {"kind": type(p).__name__, **dataclasses.asdict(p)}
                    for p in s.perturbations
                ],
            }
            for s in scenarios
        ],
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class StoredStudyMeta:
    """Directory entry for one persisted study."""

    key: str
    case_name: str
    analysis: str
    study_kind: str
    label: str
    created_at: float
    n_scenarios: int
    n_jobs: int
    runtime_s: float

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["created_at_iso"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.localtime(self.created_at)
        )
        return out


class ResultStore:
    """Directory-backed store of full per-scenario study result sets."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    def key_for(
        self, base: Network, config: StudyConfig, scenarios: list[Scenario]
    ) -> str:
        return f"{base.content_hash()}-{spec_hash(config, scenarios)}"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _meta_path(self, key: str) -> Path:
        # Deliberately not *.json so directory listings can glob payloads
        # and sidecars separately.
        return self.root / f"{key}.meta"

    def _index_path(self, key: str) -> Path:
        return self.root / f"{key}.index"

    def _trace_path(self, key: str) -> Path:
        # JSON-lines span export (one span dict per line), written by
        # :meth:`put_trace` for traced studies; see
        # :mod:`repro.instrumentation.trace`.
        return self.root / f"{key}.trace"

    def _write_atomic(self, path: Path, text: str) -> None:
        """Write via a unique temp file + rename: concurrent puts of the
        same study (identical content-hash key) must not fight over one
        temp name, and readers never see partial files."""
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def put(
        self,
        base: Network,
        config: StudyConfig,
        scenarios: list[Scenario],
        study: StudyResult,
        *,
        study_kind: str = "",
        label: str = "",
    ) -> str:
        """Persist a full study result set; returns its content-hash key."""
        if study.n_scenarios and not study.results:
            raise ValueError(
                "study holds no per-scenario records (streamed with "
                "keep_results=False); re-run with keep_results=True to persist"
            )
        # One expansion of the (possibly lazy) stream for both the key
        # and the payload — counted against the study so a consumed
        # one-shot generator (which would silently hash as an *empty*
        # spec and collide every study onto one key) is rejected.
        scenarios = list(scenarios)
        if len(scenarios) != study.n_scenarios:
            raise ValueError(
                f"scenario stream yields {len(scenarios)} scenarios but the "
                f"study ran {study.n_scenarios} — pass the same re-iterable "
                "family (a ScenarioStream or list), not a consumed iterator"
            )
        net_hash = base.content_hash()
        sp_hash = spec_hash(config, scenarios)
        key = f"{net_hash}-{sp_hash}"
        meta = StoredStudyMeta(
            key=key,
            case_name=study.case_name,
            analysis=study.analysis,
            study_kind=study_kind,
            label=label,
            created_at=time.time(),
            n_scenarios=study.n_scenarios,
            n_jobs=study.n_jobs,
            runtime_s=study.runtime_s,
        )
        records = [dataclasses.asdict(r) for r in study.results]
        digest = _results_digest(records)
        payload = {
            "format": FORMAT,
            **dataclasses.asdict(meta),
            "network_hash": net_hash,
            "spec_hash": sp_hash,
            "config": dataclasses.asdict(config),
            "results_digest": digest,
            "results": records,
        }
        self._write_atomic(self._path(key), json.dumps(payload, default=str))
        # Aggregate-index sidecar: the (possibly sliced) ensemble
        # aggregate plus a small worst-scenario slice, checksummed
        # against the payload records — what compare/latest_summary read
        # instead of the payload.  Written after the payload so an index
        # never points at a missing one.
        self._write_index(
            key, self._index_doc(key, study.aggregate().to_dict(), study.worst(5), digest)
        )
        # Sidecar metadata keeps directory listings O(studies), not
        # O(total stored result bytes).
        self._write_atomic(
            self._meta_path(key), json.dumps(dataclasses.asdict(meta))
        )
        metrics = get_metrics()
        metrics.counter("gridmind_store_puts_total", "Studies persisted").inc()
        metrics.counter(
            "gridmind_store_bytes_written_total", "Bytes written to the store"
        ).inc(self._entry_bytes(key))
        return key

    # ------------------------------------------------------------------
    # trace sidecars
    # ------------------------------------------------------------------
    def put_trace(self, key: str, spans: list) -> Path:
        """Persist a study's trace as a JSON-lines ``<key>.trace`` sidecar.

        ``spans`` are :class:`~repro.instrumentation.trace.Span` objects
        or their dicts.  The sidecar lives alongside the study payload
        under the same content-hash key, so ``gridmind trace <ref>`` can
        resolve it through the usual key/prefix/label forms; it is
        removed with the entry on :meth:`prune`.
        """
        lines = []
        for span in spans:
            data = span.to_dict() if hasattr(span, "to_dict") else span
            lines.append(json.dumps(data, default=str))
        path = self._trace_path(self.resolve(key))
        self._write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
        get_metrics().counter(
            "gridmind_store_traces_total", "Trace sidecars persisted"
        ).inc()
        return path

    def load_trace(self, ref: str) -> list[dict]:
        """Parsed span dicts for a stored study's trace sidecar."""
        key = self.resolve(ref)
        path = self._trace_path(key)
        if not path.exists():
            raise StudyNotFound(
                f"study {key} has no trace sidecar (was it run with --trace?)"
            )
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    # ------------------------------------------------------------------
    # health snapshot sidecar
    # ------------------------------------------------------------------
    #: Max JSONL lines retained in the health sidecar before rotation
    #: (at the service's 5 s sampling default: ~5.7 h of trend).
    HEALTH_SNAPSHOT_CAP = 4096

    def _health_path(self) -> Path:
        # Store-wide (not per-study): the health trend describes the
        # *service* over this store, so one ``health-snapshots.jsonl``
        # file — its name can never collide with a content-hash key.
        return self.root / "health-snapshots.jsonl"

    def append_health_snapshot(self, snapshot: dict) -> Path:
        """Append one metrics snapshot to the store's health sidecar.

        The sidecar is the persistence half of
        :class:`~repro.instrumentation.rollup.MetricsSampler`: trends
        survive restarts, and ``gridmind health`` / ``gridmind top``
        evaluate from it without embedding the service.  When the file
        exceeds :attr:`HEALTH_SNAPSHOT_CAP` lines it is rotated in place
        to its newest half (atomically, so concurrent readers always see
        a complete file).
        """
        path = self._health_path()
        line = json.dumps(snapshot, default=str)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return path
        if len(lines) > self.HEALTH_SNAPSHOT_CAP:
            keep = lines[-(self.HEALTH_SNAPSHOT_CAP // 2):]
            self._write_atomic(path, "\n".join(keep) + "\n")
        return path

    def load_health_snapshots(self, limit: int | None = None) -> list[dict]:
        """Parsed snapshot dicts from the health sidecar, oldest first.

        ``limit`` keeps only the newest N.  Unparseable lines (a crash
        mid-append on a non-atomic write) are skipped, not fatal — the
        sidecar is an operational trail, not a ledger.
        """
        path = self._health_path()
        if not path.exists():
            return []
        snaps: list[dict] = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                snaps.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        if limit is not None:
            snaps = snaps[-limit:]
        return snaps

    @staticmethod
    def _index_doc(
        key: str, aggregate: dict, worst: list[ScenarioResult], digest: str
    ) -> dict:
        """The one place the index document's shape is defined — both
        :meth:`put` and the rebuild path compose it here, so a rebuilt
        index is identical to a put-written one by construction."""
        return {
            "format": INDEX_FORMAT,
            "key": key,
            "results_digest": digest,
            "aggregate": aggregate,
            "worst_scenarios": [r.to_dict() for r in worst],
        }

    def _write_index(self, key: str, index: dict) -> dict:
        self._write_atomic(self._index_path(key), json.dumps(index, default=str))
        return index

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict:
        """Raw stored payload for ``key`` (resolves label/prefix refs)."""
        path = self._path(key)
        if not path.exists():
            key = self.resolve(key)
            path = self._path(key)
        payload = json.loads(path.read_text())
        if payload.get("format") != FORMAT:
            raise ValueError(f"{path}: not a {FORMAT} file")
        metrics = get_metrics()
        metrics.counter("gridmind_store_hits_total", "Stored-study payload reads").inc()
        metrics.counter(
            "gridmind_store_bytes_read_total", "Bytes read from the store"
        ).inc(path.stat().st_size)
        return payload

    def load_result(self, key: str) -> StudyResult:
        """Reconstruct the full :class:`StudyResult` for ``key``."""
        payload = self.get(key)
        results = [ScenarioResult(**r) for r in payload["results"]]
        slice_spec = slice_spec_from_config(payload.get("config"))
        return StudyResult(
            case_name=payload["case_name"],
            analysis=payload["analysis"],
            results=results,
            runtime_s=payload["runtime_s"],
            n_jobs=payload["n_jobs"],
            slice_spec=slice_spec if slice_spec.by else None,
        )

    # ------------------------------------------------------------------
    # aggregate indexes
    # ------------------------------------------------------------------
    def _read_index(self, key: str) -> dict | None:
        """The raw index sidecar for ``key``, or ``None`` if unusable."""
        path = self._index_path(key)
        try:
            index = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if index.get("format") != INDEX_FORMAT or index.get("key") != key:
            return None
        if not isinstance(index.get("aggregate"), dict):
            return None
        return index

    def _compute_index(self, key: str, payload: dict | None = None) -> dict:
        """Recompute one study's index document from its payload (no I/O
        beyond reading the payload).

        The only path that touches the full payload: the aggregate is
        re-sliced with the spec the payload's config declares, so a
        recomputed index is identical to the one :meth:`put` wrote.
        """
        payload = payload if payload is not None else self.get(key)
        results = [ScenarioResult(**r) for r in payload.get("results", [])]
        aggregate = aggregate_study(
            results, slice_spec=slice_spec_from_config(payload.get("config"))
        ).to_dict()
        worst = sorted(results, key=lambda r: -r.max_loading_percent)[:5]
        digest = payload.get("results_digest") or _results_digest(
            payload.get("results", [])
        )
        return self._index_doc(key, aggregate, worst, digest)

    def rebuild_index(self, key: str, payload: dict | None = None) -> dict:
        """Recompute and persist one study's index sidecar (raises when
        the store directory is not writable — :meth:`verify` wants that
        surfaced, the read paths below use the best-effort variant)."""
        return self._write_index(key, self._compute_index(key, payload))

    def _index_or_rebuild(self, key: str) -> dict:
        """The index for ``key``; a missing/unreadable sidecar is
        recomputed in memory and written back best-effort, so read-only
        paths (:meth:`compare`, :meth:`latest_summary`) keep answering on
        stores this process cannot write to."""
        index = self._read_index(key)
        if index is None:
            index = self._compute_index(key)
            with contextlib.suppress(OSError):
                self._write_index(key, index)
        return index

    def aggregate_index(self, ref: str) -> dict:
        """The aggregate index for ``ref`` (key/prefix/label), rebuilding
        from the payload only when the sidecar is missing or unreadable."""
        return self._index_or_rebuild(self.resolve(ref))

    @staticmethod
    def _meta_from(payload: dict) -> StoredStudyMeta:
        return StoredStudyMeta(
            key=payload["key"],
            case_name=payload.get("case_name", ""),
            analysis=payload.get("analysis", ""),
            study_kind=payload.get("study_kind", ""),
            label=payload.get("label", ""),
            created_at=float(payload.get("created_at", 0.0)),
            n_scenarios=int(payload.get("n_scenarios", 0)),
            n_jobs=int(payload.get("n_jobs", 1)),
            runtime_s=float(payload.get("runtime_s", 0.0)),
        )

    def list_studies(self) -> list[StoredStudyMeta]:
        """All stored studies, oldest first by creation time.

        Reads the per-study ``.meta`` sidecars, so listing cost scales
        with the study count, not the stored result bytes; payloads
        missing a sidecar (older stores, interrupted writes) fall back
        to a full parse.
        """
        entries = []
        for path in self.root.glob("*.json"):
            key = path.stem
            meta_path = self._meta_path(key)
            payload = None
            if meta_path.exists():
                try:
                    payload = json.loads(meta_path.read_text())
                except (OSError, json.JSONDecodeError):
                    payload = None
            if payload is None:
                try:
                    payload = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                if payload.get("format") != FORMAT:
                    continue
            try:
                entries.append(self._meta_from(payload))
            except (KeyError, TypeError, ValueError):
                continue
        entries.sort(key=lambda m: (m.created_at, m.key))
        return entries

    def __len__(self) -> int:
        return len(self.list_studies())

    def resolve(self, ref: str, entries: list[StoredStudyMeta] | None = None) -> str:
        """Turn a key, unique key prefix, or label into a concrete key.

        ``entries`` lets callers that already hold a directory listing
        avoid a second store scan.
        """
        if entries is None:
            entries = self.list_studies()
        by_key = [m.key for m in entries if m.key == ref]
        if by_key:
            return by_key[0]
        by_prefix = [m.key for m in entries if m.key.startswith(ref)] if ref else []
        if len(by_prefix) == 1:
            return by_prefix[0]
        # Labels may repeat (e.g. a nightly sweep): newest wins.
        by_label = [m.key for m in entries if m.label and m.label == ref]
        if by_label:
            return by_label[-1]
        raise StudyNotFound(
            f"no stored study matches {ref!r} "
            f"({len(entries)} studies in {self.root})"
        )

    def latest_summary(self) -> dict | None:
        """Agent-shaped summary of the newest stored study (or ``None``).

        The payload mirrors what the study tools deposit into
        ``AgentContext.study_summary``, so a fresh session can answer
        study-status questions from disk alone — served entirely from
        the meta + aggregate-index sidecars, never the full result set.
        """
        entries = self.list_studies()
        if not entries:
            return None
        meta = entries[-1]
        index = self._index_or_rebuild(meta.key)
        return {
            "case_name": meta.case_name,
            "analysis": meta.analysis,
            "n_scenarios": meta.n_scenarios,
            "n_jobs": meta.n_jobs,
            "runtime_s": round(meta.runtime_s, 3),
            "aggregate": index["aggregate"],
            "worst_scenarios": (index.get("worst_scenarios") or [])[:5],
            "study_kind": meta.study_kind,
            "study_key": meta.key,
            "source": "result_store",
        }

    # ------------------------------------------------------------------
    # lifecycle: retention and integrity
    # ------------------------------------------------------------------
    def _entry_bytes(self, key: str) -> int:
        """On-disk footprint of one study (payload + all sidecars)."""
        size = 0
        for path in (
            self._path(key),
            self._meta_path(key),
            self._index_path(key),
            self._trace_path(key),
        ):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return size

    def _delete(self, key: str) -> None:
        for path in (
            self._path(key),
            self._meta_path(key),
            self._index_path(key),
            self._trace_path(key),
        ):
            with contextlib.suppress(OSError):
                path.unlink()

    def prune(
        self,
        *,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
    ) -> dict:
        """Apply retention policy: drop old studies, then cap total bytes.

        ``max_age_s`` removes every study older than that; ``max_bytes``
        then evicts oldest-first until the remaining payloads (plus
        sidecars) fit.  Content-hash keys make pruning safe: re-running
        an identical study simply recreates its entry.  Returns a report
        of what was removed and what remains.
        """
        entries = self.list_studies()  # oldest first
        removed: list[str] = []
        kept = list(entries)
        if max_age_s is not None:
            cutoff = (now if now is not None else time.time()) - max_age_s
            stale = [m for m in kept if m.created_at < cutoff]
            removed.extend(m.key for m in stale)
            kept = [m for m in kept if m.created_at >= cutoff]
        if max_bytes is not None:
            sizes = {m.key: self._entry_bytes(m.key) for m in kept}
            total = sum(sizes.values())
            while kept and total > max_bytes:
                oldest = kept.pop(0)
                total -= sizes[oldest.key]
                removed.append(oldest.key)
        for key in removed:
            self._delete(key)
        return {
            "n_removed": len(removed),
            "removed": removed,
            "n_kept": len(kept),
            "bytes_kept": sum(self._entry_bytes(m.key) for m in kept),
        }

    def verify(self, *, rebuild_indexes: bool = False) -> dict:
        """Integrity-check every stored study against its content-hash key.

        Checks, per payload: parseable JSON in the current format, the
        filename key matching the stored ``network_hash``/``spec_hash``
        pair, the result-record checksum (when present — older stores
        predate it), record-count consistency, and that every record
        reconstructs as a :class:`ScenarioResult`.  Sidecars pointing at
        missing payloads are reported as orphans (and are safe to prune).

        Aggregate-index sidecars are verified too: a missing, unreadable,
        or stale index (its ``results_digest`` no longer matching the
        payload's records) is reported under ``index_issues`` — and
        rebuilt from the payload when ``rebuild_indexes=True``, so a
        verify pass can bring an old or damaged store back to
        index-served comparisons.
        """
        ok: list[str] = []
        corrupt: list[dict] = []
        index_issues: list[dict] = []
        n_rebuilt = 0
        for path in sorted(self.root.glob("*.json")):
            key = path.stem
            try:
                payload = json.loads(path.read_text())
                if payload.get("format") != FORMAT:
                    raise ValueError(f"not a {FORMAT} payload")
                stored_key = (
                    f"{payload.get('network_hash', '')}-{payload.get('spec_hash', '')}"
                )
                if stored_key != key:
                    raise ValueError(
                        f"content-hash mismatch: file {key}, payload {stored_key}"
                    )
                records = payload.get("results", [])
                if payload.get("n_scenarios") != len(records):
                    raise ValueError(
                        f"record count {len(records)} != n_scenarios "
                        f"{payload.get('n_scenarios')}"
                    )
                digest = payload.get("results_digest")
                if digest is not None and digest != _results_digest(records):
                    raise ValueError("results checksum mismatch")
                for r in records:
                    ScenarioResult(**r)
            except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
                corrupt.append({"key": key, "error": str(exc)})
                continue
            ok.append(key)
            issue = self._index_issue(key, payload)
            if issue is not None:
                if rebuild_indexes:
                    self.rebuild_index(key, payload)
                    issue["rebuilt"] = True
                    n_rebuilt += 1
                index_issues.append(issue)
        payload_keys = {p.stem for p in self.root.glob("*.json")}
        orphans = sorted(
            p.stem for p in self.root.glob("*.meta") if p.stem not in payload_keys
        )
        orphan_indexes = sorted(
            p.stem for p in self.root.glob("*.index") if p.stem not in payload_keys
        )
        return {
            "n_studies": len(ok) + len(corrupt),
            "n_ok": len(ok),
            "ok": ok,
            "corrupt": corrupt,
            "orphan_sidecars": orphans,
            "orphan_indexes": orphan_indexes,
            "index_issues": index_issues,
            "n_indexes_rebuilt": n_rebuilt,
        }

    def _index_issue(self, key: str, payload: dict) -> dict | None:
        """Classify one study's index sidecar problem (``None`` = healthy)."""
        if not self._index_path(key).exists():
            return {"key": key, "issue": "missing_index"}
        index = self._read_index(key)
        if index is None:
            return {"key": key, "issue": "corrupt_index"}
        # Pre-digest payloads (older stores) carry no results_digest;
        # compare against one recomputed from the records so their
        # rebuilt indexes verify as healthy instead of stale forever.
        expected = payload.get("results_digest") or _results_digest(
            payload.get("results", [])
        )
        if index.get("results_digest") != expected:
            return {"key": key, "issue": "stale_index"}
        return None

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    @staticmethod
    def _slice_delta(agg_a: dict, agg_b: dict) -> dict:
        """Per-cell deltas for every slice dimension both studies share.

        Cells are matched by tag value; values present on only one side
        are skipped (a shorter sweep simply compares where it overlaps).
        """
        out: dict = {}
        slices_a = agg_a.get("slices") or {}
        for dim, block_b in (agg_b.get("slices") or {}).items():
            block_a = slices_a.get(dim)
            if not block_a:
                continue
            cells_a = {c["value"]: c for c in block_a.get("cells", [])}
            rows = []
            for cell_b in block_b.get("cells", []):
                cell_a = cells_a.get(cell_b["value"])
                if cell_a is None:
                    continue
                row = {
                    "value": cell_b["value"],
                    "violation_rate": round(
                        cell_b["violation_rate"] - cell_a["violation_rate"], 4
                    ),
                }
                ca, cb = cell_a.get("cost_stats"), cell_b.get("cost_stats")
                if ca and cb:
                    row["cost_p50"] = round(cb["p50"] - ca["p50"], 4)
                la, lb = cell_a.get("loading_stats"), cell_b.get("loading_stats")
                if la and lb:
                    row["loading_max"] = round(lb["max"] - la["max"], 4)
                rows.append(row)
            if rows:
                out[dim] = rows
        return out

    def compare(self, ref_a: str | None = None, ref_b: str | None = None) -> dict:
        """Diff two stored studies' ensemble aggregates.

        With refs omitted, compares the two most recent studies (``a`` =
        older, ``b`` = newer) — the "today's sweep vs yesterday's" path.
        Both sides are read from the aggregate-index sidecars (rebuilt
        on demand when absent), so comparing two 10k-scenario studies
        never loads a per-scenario payload.  Studies sliced over a
        shared dimension additionally report per-cell deltas
        (``delta["slices"]``) — "how did cost-vs-hour move overnight".
        """
        entries = self.list_studies()
        if ref_a is None or ref_b is None:
            if len(entries) < 2:
                raise StudyNotFound(
                    f"need two stored studies to compare, have {len(entries)}"
                )
            ref_a = ref_a or entries[-2].key
            ref_b = ref_b or entries[-1].key
        key_a = self.resolve(ref_a, entries)
        key_b = self.resolve(ref_b, entries)
        meta = {m.key: m for m in entries}
        agg_a = self._index_or_rebuild(key_a)["aggregate"]
        agg_b = self._index_or_rebuild(key_b)["aggregate"]

        delta: dict = {}
        for rate in ("violation_rate", "overload_rate", "voltage_violation_rate"):
            delta[rate] = round(agg_b[rate] - agg_a[rate], 4)
        for stats_key, fields in (
            ("cost_stats", ("p50", "p95", "max")),
            ("loading_stats", ("p50", "max")),
            ("min_voltage_stats", ("min",)),
        ):
            sa, sb = agg_a.get(stats_key), agg_b.get(stats_key)
            if sa and sb:
                delta[stats_key] = {
                    f: round(sb[f] - sa[f], 4) for f in fields
                }
        slice_delta = self._slice_delta(agg_a, agg_b)
        if slice_delta:
            delta["slices"] = slice_delta

        freq_a = {int(k) for k in (agg_a.get("branch_overload_freq") or {})}
        freq_b = {int(k) for k in (agg_b.get("branch_overload_freq") or {})}
        return {
            "a": meta[key_a].to_dict() if key_a in meta else {"key": key_a},
            "b": meta[key_b].to_dict() if key_b in meta else {"key": key_b},
            "aggregate_a": agg_a,
            "aggregate_b": agg_b,
            "delta": delta,
            "newly_overloaded_branches": sorted(freq_b - freq_a),
            "cleared_branches": sorted(freq_a - freq_b),
            "same_base_network": key_a.split("-")[0] == key_b.split("-")[0],
        }
