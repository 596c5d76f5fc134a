"""Narration templates: structured solver results -> grounded prose.

Every number in these strings is read directly from a tool-result dict —
the code path equivalent of the paper's "each reported number is pulled
from stored structured results".  Verbosity levels mirror the model
profiles (0 terse, 1 normal, 2 expansive).
"""

from __future__ import annotations


def _money(x) -> str:
    return f"${float(x):,.2f}"


def narrate_acopf(res: dict, verbosity: int) -> str:
    if not res.get("solved"):
        return (
            f"The ACOPF for {res.get('case_name', 'the case')} did not converge: "
            f"{res.get('convergence_message', 'no solver message')}. "
            "I recommend checking the recent modifications or relaxing limits."
        )
    head = (
        f"Solved ACOPF for {res['case_name']}: total generation cost "
        f"{_money(res['objective_cost'])}/h."
    )
    if verbosity == 0:
        return head
    mid = (
        f" Dispatch covers {res['total_generation_mw']:.1f} MW "
        f"({res['losses_mw']:.1f} MW losses); voltages span "
        f"[{res['min_voltage_pu']:.3f}, {res['max_voltage_pu']:.3f}] pu and the "
        f"most loaded branch sits at {res['max_loading_percent']:.1f}% of rating."
    )
    if verbosity == 1:
        return head + mid
    tail = (
        f" The solver ({res.get('solver', 'acopf-ipm')}) converged in "
        f"{res.get('iterations', '?')} iterations with max power-balance mismatch "
        f"{res.get('max_mismatch_pu', 0):.2e} pu, within the 1e-4 pu validation "
        "tolerance; all reported figures are taken from the stored solution object."
    )
    return head + mid + tail


def narrate_load_change(res: dict, verbosity: int) -> str:
    change = (
        f"Load at bus {res['bus']} is now {res['new_pd_mw']:.1f} MW "
        f"(was {res['old_pd_mw']:.1f} MW)."
    )
    if not res.get("solved"):
        return (
            change
            + " However, the re-dispatch did not converge: "
            + res.get("convergence_message", "no message")
        )
    cost_bit = f" Re-solved ACOPF cost: {_money(res['objective_cost'])}/h"
    delta = res.get("cost_delta")
    if delta is not None:
        direction = "up" if delta >= 0 else "down"
        cost_bit += f" ({direction} {_money(abs(delta))}/h from the previous solution)"
    cost_bit += "."
    if verbosity == 0:
        return change + cost_bit
    return (
        change
        + cost_bit
        + f" Voltages remain in [{res['min_voltage_pu']:.3f}, "
        f"{res['max_voltage_pu']:.3f}] pu; max branch loading "
        f"{res['max_loading_percent']:.1f}%."
    )


def narrate_status(res: dict, verbosity: int) -> str:
    if not res.get("case_name"):
        return (
            "No case is loaded yet. Ask me to solve one of the IEEE systems "
            "(14, 30, 57, 118 or 300 bus) to get started."
        )
    head = (
        f"Active case: {res['case_name']} — {res['n_bus']} buses, "
        f"{res['n_gen']} generators, {res['n_load']} loads, "
        f"{res['n_branch']} branches."
    )
    if res.get("solved"):
        head += (
            f" Latest ACOPF solution: {_money(res['objective_cost'])}/h "
            f"({'fresh' if res.get('fresh') else 'stale — the network changed since'})."
        )
    else:
        head += " No valid ACOPF solution in context yet."
    if verbosity >= 1 and res.get("modifications"):
        head += f" Applied modifications: {'; '.join(res['modifications'][-3:])}."
    return head


def narrate_contingency(res: dict, verbosity: int) -> str:
    head = (
        f"N-1 contingency analysis for {res['case_name']} screened "
        f"{res['n_contingencies']} outages: {res['n_violations']} cause violations; "
        f"worst overload {res['max_overload_percent']:.0f}%."
    )
    lines = [head, ""]
    crit = res.get("critical", [])
    if crit:
        lines.append("Most critical contingencies:")
        for c in crit:
            kind = "transformer" if c.get("is_transformer") else "line"
            entry = (
                f"  {c['rank']}. Branch {c['branch_id']} ({kind} "
                f"{c['from_bus']}-{c['to_bus']}), severity {c['severity']:.1f}"
            )
            if c.get("islanded"):
                entry += f" — islands {c['stranded_load_mw']:.0f} MW of load"
            elif not c.get("converged", True):
                entry += " — post-contingency collapse risk (power flow diverged)"
            else:
                entry += (
                    f" — {c['n_overloads']} overload(s), max loading "
                    f"{c['max_loading_percent']:.0f}%, min voltage "
                    f"{c['min_voltage_pu']:.3f} pu"
                )
            lines.append(entry)
            if verbosity >= 2 and c.get("justification"):
                lines.append(f"      {c['justification']}")
    if verbosity >= 1 and res.get("recommendations"):
        lines.append("")
        lines.append("Recommendations:")
        lines.extend(f"  - {r}" for r in res["recommendations"][:4])
    return "\n".join(lines)


#: Canonical slice-dimension tags -> operator-facing labels.
_SLICE_DIM_LABELS = {
    "hour_of_day": "hour of day",
    "scale": "load scale",
    "hot_zone": "hot zone",
    "outage_branch": "outaged branch",
    "stratum": "stratum",
    "draw": "draw",
}


def _slice_cell_line(dim: str, cell: dict) -> str:
    """One grounded slice-table row: every number from the cell dict."""
    label = "other" if cell["value"] == "__other__" else cell["value"]
    bits = [
        f"  {dim} {label}: {cell['n']} scenario{'s' if cell['n'] != 1 else ''}",
        f"{100.0 * cell.get('violation_rate', 0.0):.0f}% violations",
    ]
    cost = cell.get("cost_stats")
    if cost:
        bits.append(f"median cost {_money(cost['p50'])}/h")
    loading = cell.get("loading_stats")
    if loading:
        bits.append(f"peak loading p95 {loading['p95']:.1f}%")
    return ", ".join(bits)


def _thin_cells(cells: list[dict], keep: int = 12) -> list[dict]:
    """Evenly sample a long cell table, always keeping both endpoints."""
    if len(cells) <= keep:
        return cells
    step = (len(cells) - 1) / (keep - 1)
    picked = sorted({round(i * step) for i in range(keep)} | {len(cells) - 1})
    return [cells[i] for i in picked]


def narrate_slices(slices: dict, verbosity: int) -> list[str]:
    """Per-dimension slice tables ("cost vs sweep scale", "violations vs
    hour-of-day") rendered from a study aggregate's ``slices`` payload."""
    lines: list[str] = []
    for dim, block in (slices or {}).items():
        cells = block.get("cells") or []
        label = _SLICE_DIM_LABELS.get(dim, dim.replace("_", " "))
        if not cells:
            # An explicitly requested dimension that matched nothing must
            # say so, not silently vanish from the reply.
            lines.append(
                f"Sliced by {label}: no scenarios carried this tag "
                f"({block.get('n_unsliced', 0)} untagged)."
            )
            continue
        head = f"Sliced by {label} ({block.get('n_cells', len(cells))} buckets"
        overflow = block.get("n_overflow_values", 0)
        if overflow:
            head += f"; {overflow} overflow values folded into 'other'"
        unsliced = block.get("n_unsliced", 0)
        if unsliced:
            head += f"; {unsliced} scenarios untagged"
        lines.append(head + "):")
        shown = cells if verbosity >= 2 else _thin_cells(cells)
        lines.extend(_slice_cell_line(label, cell) for cell in shown)
        if len(shown) < len(cells):
            lines.append(f"  ... ({len(cells) - len(shown)} more buckets elided)")
    return lines


#: One label per study kind (the ``StudyRequest`` vocabulary every
#: front end records).
_STUDY_KIND_LABELS = {
    "sweep": "load sweep",
    "monte_carlo": "Monte Carlo load",
    "lhs": "Latin-hypercube load",
    "outage": "outage combination",
    "profile": "daily load-profile",
}


def narrate_study(res: dict, verbosity: int) -> str:
    if not res or not res.get("n_scenarios"):
        return (
            "No batch study has been run yet in this session. Ask for a load "
            "sweep, Monte Carlo ensemble, N-2 outage study, or daily profile."
        )
    agg = res.get("aggregate", {})
    kind = _STUDY_KIND_LABELS.get(res.get("study_kind", ""), "scenario")
    head = (
        f"Completed a {res['n_scenarios']}-scenario {kind} study on "
        f"{res['case_name']} ({res.get('analysis', '?')} analysis, "
        f"{res.get('n_jobs', 1)} worker(s), {res.get('runtime_s', 0):.1f}s compute): "
        f"{agg.get('n_converged', '?')}/{res['n_scenarios']} scenarios converged, "
        f"{100.0 * agg.get('violation_rate', 0.0):.0f}% show limit violations."
    )
    if verbosity == 0:
        return head
    lines = [head]
    cost = agg.get("cost_stats")
    if cost:
        lines.append(
            f"Cost distribution: median {_money(cost['p50'])}/h, "
            f"p95 {_money(cost['p95'])}/h "
            f"(range {_money(cost['min'])} – {_money(cost['max'])})."
        )
    loading = agg.get("loading_stats")
    if loading:
        lines.append(
            f"Peak branch loading: median {loading['p50']:.1f}%, "
            f"p95 {loading['p95']:.1f}%, worst {loading['max']:.1f}%."
        )
    security = agg.get("security_cost_stats")
    if security:
        lines.append(
            f"Security premium (SCOPF over economic dispatch): median "
            f"{_money(security['p50'])}/h, worst {_money(security['max'])}/h."
        )
    freq = agg.get("branch_overload_freq") or {}
    if freq:
        worst = list(freq.items())[:3]
        lines.append(
            "Most frequently overloaded branches: "
            + ", ".join(f"branch {b} ({100.0 * f:.0f}% of scenarios)" for b, f in worst)
            + "."
        )
    stable = agg.get("stable_critical")
    if stable:
        lines.append(
            "Contingencies staying critical across the ensemble: branches "
            + ", ".join(str(b) for b in stable)
            + "."
        )
    if agg.get("slices"):
        lines.extend(narrate_slices(agg["slices"], verbosity))
    n_events = res.get("n_progress_events")
    if n_events:
        sketched = any(
            (agg.get(k) or {}).get("estimator") == "p2"
            for k in ("cost_stats", "loading_stats", "min_voltage_stats")
        )
        bit = (
            f"Results streamed incrementally ({n_events} progress "
            f"checkpoint{'s' if n_events != 1 else ''}"
        )
        if sketched:
            bit += "; distribution percentiles via online P2 sketches"
        lines.append(bit + ").")
    if verbosity >= 2:
        worst_scn = res.get("worst_scenarios") or []
        if worst_scn:
            lines.append("Most stressed scenarios:")
            for w in worst_scn[:3]:
                bit = (
                    f"  - {w['name']}: peak loading {w['max_loading_percent']:.1f}%"
                )
                if w.get("objective_cost") is not None:
                    bit += f", cost {_money(w['objective_cost'])}/h"
                if not w.get("converged", True):
                    bit += " (did not converge)"
                lines.append(bit)
        lines.append(
            "All ensemble statistics are aggregated from structured per-scenario "
            "solver results stored in the session context."
        )
    return "\n".join(lines)


def _study_tag(meta: dict) -> str:
    """Short human handle for one side of a comparison."""
    kind = _STUDY_KIND_LABELS.get(meta.get("study_kind", ""), "scenario")
    label = meta.get("label") or meta.get("key", "?")
    when = meta.get("created_at_iso", "")
    bits = [f"{label}", f"{meta.get('n_scenarios', '?')}-scenario {kind} study"]
    if meta.get("case_name"):
        bits.append(f"on {meta['case_name']}")
    if when:
        bits.append(f"stored {when}")
    return f"{bits[0]} ({', '.join(bits[1:])})"


def narrate_study_comparison(res: dict, verbosity: int) -> str:
    """Grounded diff of two persisted studies (compare_studies payload)."""
    a, b = res.get("a", {}), res.get("b", {})
    agg_a, agg_b = res.get("aggregate_a", {}), res.get("aggregate_b", {})
    delta = res.get("delta", {})
    va = 100.0 * agg_a.get("violation_rate", 0.0)
    vb = 100.0 * agg_b.get("violation_rate", 0.0)
    head = (
        f"Compared {_study_tag(a)} with {_study_tag(b)}: limit-violation "
        f"rate moved from {va:.0f}% to {vb:.0f}% "
        f"({100.0 * delta.get('violation_rate', 0.0):+.0f} points)."
    )
    if verbosity == 0:
        return head
    lines = [head]
    d_cost = delta.get("cost_stats")
    if d_cost:
        lines.append(
            f"Median cost shifted by {_money(d_cost['p50'])}/h "
            f"(p95 by {_money(d_cost['p95'])}/h)."
        )
    d_loading = delta.get("loading_stats")
    if d_loading:
        lines.append(
            f"Median peak loading changed by {d_loading['p50']:+.1f} points "
            f"(worst case by {d_loading['max']:+.1f})."
        )
    for dim, rows in (delta.get("slices") or {}).items():
        if not rows:
            continue
        label = _SLICE_DIM_LABELS.get(dim, dim.replace("_", " "))
        worst_row = max(rows, key=lambda r: abs(r.get("violation_rate", 0.0)))
        bit = (
            f"Across {len(rows)} shared {label} buckets the largest shift is "
            f"at {label} {worst_row['value']}: violation rate "
            f"{100.0 * worst_row.get('violation_rate', 0.0):+.0f} points"
        )
        if worst_row.get("cost_p50") is not None:
            bit += f", median cost {_money(worst_row['cost_p50'])}/h"
        lines.append(bit + ".")
    new_over = res.get("newly_overloaded_branches") or []
    cleared = res.get("cleared_branches") or []
    if new_over:
        lines.append(
            "Branches overloading in the newer study but not the older: "
            + ", ".join(str(x) for x in new_over[:6])
            + "."
        )
    if cleared:
        lines.append(
            "Branches that stopped overloading: "
            + ", ".join(str(x) for x in cleared[:6])
            + "."
        )
    if not new_over and not cleared:
        lines.append("The set of overloaded branches is unchanged.")
    if verbosity >= 2:
        if not res.get("same_base_network", True):
            lines.append(
                "Note: the two studies ran against different base operating "
                "points (their network content hashes differ)."
            )
        lines.append(
            "All comparison figures are computed from the persisted "
            "per-scenario result sets in the cross-session store."
        )
    return "\n".join(lines)


def narrate_specific_outage(res: dict, verbosity: int) -> str:
    body = res.get("summary_line", "Outage analysed.")
    if verbosity == 0:
        return body
    extra = []
    if res.get("converged") and not res.get("islanded"):
        extra.append(
            f"Post-contingency max loading {res['max_loading_percent']:.0f}%, "
            f"voltage range [{res['min_voltage_pu']:.3f}, "
            f"{res['max_voltage_pu']:.3f}] pu."
        )
    if res.get("overloads") and verbosity >= 2:
        details = ", ".join(f"branch {b} at {p:.0f}%" for b, p in res["overloads"][:4])
        extra.append(f"Overloaded elements: {details}.")
    return " ".join([body, *extra])


def narrate_quality(res: dict, verbosity: int) -> str:
    head = (
        f"Solution quality for {res['case_name']}: overall "
        f"{res['overall_score']:.1f}/10 (convergence {res['convergence_quality']:.1f}, "
        f"constraints {res['constraint_satisfaction']:.1f}, economics "
        f"{res['economic_efficiency']:.1f}, security {res['system_security']:.1f})."
    )
    if verbosity >= 1 and res.get("recommendations"):
        head += " Recommendations: " + " ".join(res["recommendations"][:2])
    return head


def narrate_economic_impact(res: dict, verbosity: int) -> str:
    if not res.get("solved"):
        return (
            f"After removing branch {res.get('branch_desc', '?')} the re-dispatch "
            f"did not converge — the outage is not economically survivable at this "
            "operating point."
        )
    delta = res["objective_cost"] - res["base_objective_cost"]
    pct = 100.0 * delta / res["base_objective_cost"] if res["base_objective_cost"] else 0.0
    head = (
        f"Removing {res['branch_desc']} raises the hourly dispatch cost from "
        f"{_money(res['base_objective_cost'])} to {_money(res['objective_cost'])} "
        f"({delta:+,.2f} $/h, {pct:+.2f}%)."
    )
    if verbosity == 0:
        return head
    return head + (
        f" Post-outage max branch loading is {res['max_loading_percent']:.1f}% and "
        f"the minimum voltage {res['min_voltage_pu']:.3f} pu."
    )


def narrate_watch_window(res: dict, verbosity: int) -> str:
    """One closed telemetry window, narrated as it ships.

    ``res`` is the watch loop's per-window update dict: the window's
    aggregate counters plus the alert events it triggered.
    """
    head = (
        f"Window {res['index']} (ticks {res['start_tick']}-{res['end_tick'] - 1}): "
    )
    n = res.get("n_results", 0)
    if n == 0:
        head += "no telemetry arrived — an empty window is itself a signal."
    else:
        head += (
            f"{n} ticks folded, violation rate "
            f"{100.0 * res.get('violation_rate', 0.0):.0f}%"
        )
        if res.get("n_anomalous"):
            head += (
                f", {res['n_anomalous']} tick(s) flagged anomalous "
                f"({100.0 * res.get('anomaly_rate', 0.0):.0f}% of the window)"
            )
        head += "."
    if verbosity == 0:
        return head
    lines = [head]
    for alert in res.get("alerts", []):
        if alert["transition"] == "firing":
            bit = f"Alert: {alert['rule']} is now {alert['status'].upper()}"
            if alert.get("value") is not None:
                bit += f" (was {alert['previous']}, value {alert['value']:.3f})"
            lines.append(bit + ".")
        else:
            lines.append(f"Alert resolved: {alert['rule']} returned to OK.")
    if verbosity >= 2 and res.get("slices"):
        lines.extend(narrate_slices(res["slices"], verbosity))
    return "\n".join(lines)


def narrate_watch(res: dict, verbosity: int) -> str:
    """Whole-watch summary: feed shape, flagged windows, alert history."""
    lines = [
        (
            f"Watched {res['case_name']} for {res['n_ticks']} telemetry ticks: "
            f"{res['n_frames']} frames from {res['n_devices']} devices, folded "
            f"into {res['n_windows']} rolling window(s) of {res['window_ticks']} "
            f"ticks (slide {res['slide_ticks']})."
        )
    ]
    flagged = [w for w in res.get("windows", []) if w.get("n_anomalous")]
    windows_bit = (
        ", ".join(str(w["index"]) for w in flagged[:6]) if flagged else "none"
    )
    if res.get("n_anomaly_frames"):
        lines.append(
            f"{res['n_anomaly_frames']} frames carried an injected anomaly; "
            f"flagged windows: {windows_bit}."
        )
    elif flagged:
        # Only a dropout flags a tick without a flagged frame.
        lines.append(
            f"Devices stopped reporting (dropout); flagged windows: {windows_bit}."
        )
    else:
        lines.append("No anomalous frames were observed.")
    alerts = res.get("alerts", [])
    if alerts:
        fired = [a for a in alerts if a["transition"] == "firing"]
        resolved = [a for a in alerts if a["transition"] == "resolved"]
        bit = f"The health rules fired {len(fired)} alert(s)"
        if fired:
            bit += (
                ": " + "; ".join(
                    f"{a['rule']} went {a['status'].upper()} at tick-window "
                    f"boundary t={a['ts']:.0f}s" for a in fired[:4]
                )
            )
        bit += f" ({len(resolved)} later resolved)." if resolved else "."
        lines.append(bit)
    else:
        lines.append("No health rule crossed its alert threshold.")
    if res.get("n_late_dropped"):
        lines.append(
            f"{res['n_late_dropped']} result(s) arrived too late for any open "
            "window and were dropped rather than rewriting closed aggregates."
        )
    if verbosity >= 2:
        lines.append(
            f"Peak open windows: {res.get('peak_open_windows', 1)} — rolling "
            "memory stays bounded by the window, not the feed. Determinism "
            f"digest {res.get('digest', '')} (same seed and fleet spec "
            "reproduce these aggregates bit-for-bit)."
        )
    return "\n".join(lines)


def narrate_error(error: str, tool: str) -> str:
    return (
        f"The {tool} tool reported a problem: {error}. "
        "I have not fabricated any results; please adjust the request "
        "(for example, check the bus/branch identifiers or load a case first)."
    )


def narrate_clarification(missing: str) -> str:
    prompts = {
        "case": (
            "Which test case should I work on? I support the IEEE 14, 30, 57, "
            "118 and 300 bus systems."
        ),
        "bus": "Which bus should I modify? Please give a bus number.",
        "value": "By how much (MW or %) should I change the load?",
        "branch": (
            "Which branch should I analyse? You can give a branch index or the "
            "two endpoint buses."
        ),
    }
    return prompts.get(
        missing,
        "Could you clarify the request? I can solve ACOPF cases, modify loads, "
        "run N-1 contingency analysis, and rank critical elements.",
    )
