#!/usr/bin/env python3
"""CI performance-regression gate over perf_smoke BENCH.json documents.

Compares a freshly produced BENCH.json against the committed baseline and
fails (exit 1) when the run regressed past the thresholds:

  * events_per_sec dropped by more than --max-eps-regression (default 15%)
  * invariant overhead_fraction grew by more than --max-overhead-growth
    (default 3 percentage points)
  * invariant overhead_fraction exceeds the absolute ceiling
    --max-overhead-fraction (default 0.12) while the baseline complies — a
    slowly ratcheting baseline cannot grandfather in a monitor that eats
    more than ~an eighth of the run. Until the committed baseline itself
    gets under the ceiling the check is advisory (the growth limit still
    holds the line), so the gate stays green while that work is in flight.

  * any simulated-outcome field (events, messages, bytes, captures,
    queries_ok, queries_failed, sim_time_ms) differs from the baseline at
    all: the workload is fixed-seed and deterministic, so behaviour drift
    shows next to speed drift instead of hiding behind it

The profiler's A/B self-overhead is printed for both documents as an
informational row, never gated; an A/B that cannot resolve the cost (a
negative fraction, or self_overhead_resolved false) prints as UNRESOLVED.

All comparisons only run when the two documents ran the same workload
config (nodes/objects/queries/seed/replicate) — the sanitizer CI leg runs a
smaller scenario than the committed full-scale baseline, and comparing
across scales would always "regress" (throughput obviously; but the
overhead fraction too, since fixed scan costs dominate small runs). For a
non-canonical config the gate degrades to an advisory no-op.

On failure the gate prints a profile diff (top scopes by exclusive-ms
delta, baseline vs current) so the culprit scope is named in the CI log,
not just the symptom.

  perf_gate.py --baseline BENCH.json --current build/BENCH.json
  perf_gate.py --self-test   # prove the gate fails on a seeded regression

Exit codes: 0 pass, 1 regression (or self-test failure), 2 usage/IO error.
"""

import argparse
import copy
import json
import sys

CONFIG_KEYS = ("nodes", "objects", "queries", "seed", "replicate",
               "recorder_events")


# Simulated-outcome fields: a fixed-seed run must reproduce them exactly.
BEHAVIOUR_KEYS = ("events", "messages", "bytes", "captures", "queries_ok",
                  "queries_failed", "sim_time_ms")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def same_workload(baseline, current):
    b, c = baseline.get("config", {}), current.get("config", {})
    return all(b.get(k) == c.get(k) for k in CONFIG_KEYS)


def throughput(doc):
    """events_per_sec as a positive float, or None when the document has no
    usable figure (missing, zero, or non-numeric — e.g. a hand-edited or
    truncated baseline)."""
    val = doc.get("events_per_sec")
    if isinstance(val, bool) or not isinstance(val, (int, float)) or val <= 0:
        return None
    return float(val)


def scope_map(doc):
    """name -> excl_ms from the BENCH profile block (empty when absent)."""
    profile = doc.get("profile", {})
    if not profile.get("enabled"):
        return {}
    return {s["name"]: s["excl_ms"] for s in profile.get("scopes", [])}


def profile_diff(baseline, current, top=10):
    """Lines naming the scopes whose exclusive wall moved the most."""
    base, cur = scope_map(baseline), scope_map(current)
    if not base and not cur:
        return ["  (no profile data in either document)"]
    names = sorted(set(base) | set(cur),
                   key=lambda n: abs(cur.get(n, 0.0) - base.get(n, 0.0)),
                   reverse=True)
    lines = []
    for name in names[:top]:
        b, c = base.get(name, 0.0), cur.get(name, 0.0)
        delta = c - b
        pct = f" ({delta / b * +100.0:+.0f}%)" if b > 0 else ""
        # Scopes present on only one side (renamed or fused since the
        # baseline was committed) still rank by |delta| — tag them so the
        # log shows the rename instead of a mystery 0.
        tag = ""
        if name not in base:
            tag = "  [only in current]"
        elif name not in cur:
            tag = "  [only in baseline]"
        lines.append(f"  {name:<40} {b:>10.2f} -> {c:>10.2f} ms"
                     f"  [{delta:+.2f} ms{pct}]{tag}")
    return lines


def recorder_scopes(doc):
    """The obs.recorder.* profile rows of a BENCH document. perf_smoke
    force-includes them beyond the top-N cut, so an enabled recorder with an
    enabled profile always surfaces its cost here."""
    profile = doc.get("profile", {})
    if not profile.get("enabled"):
        return []
    return [s for s in profile.get("scopes", [])
            if s.get("category") == "obs.recorder"
            or str(s.get("name", "")).startswith("obs.recorder")]


def recorder_check(current, args):
    """Absolute checks on the current document's flight-recorder cost (no
    baseline needed): when recording and profiling are both on, the
    obs.recorder.* scopes must be present (coverage — an invisible recorder
    cannot prove it is cheap) and their exclusive wall must stay under
    --max-recorder-fraction of the measured run."""
    failures = []
    recorder = current.get("recorder", {})
    profile = current.get("profile", {})
    if not recorder.get("enabled") or not profile.get("enabled"):
        return failures

    scopes = recorder_scopes(current)
    if not scopes:
        failures.append(
            "recorder enabled but no obs.recorder.* scope in the profile — "
            "recorder cost is unaccounted (coverage check)")
        return failures

    wall = profile.get("measured_wall_ms", 0.0)
    if isinstance(wall, (int, float)) and wall > 0:
        cost = sum(s.get("excl_ms", 0.0) for s in scopes)
        fraction = cost / wall
        print(f"perf_gate: recorder cost {cost:.2f} ms / {wall:.2f} ms "
              f"({fraction * 100.0:.2f}%, limit "
              f"{args.max_recorder_fraction * 100.0:.0f}%)")
        if fraction > args.max_recorder_fraction:
            failures.append(
                f"flight recorder consumed {fraction * 100.0:.2f}% of the "
                f"run, limit {args.max_recorder_fraction * 100.0:.0f}% "
                "(recording must stay cheap enough to leave always-on)")
    return failures


def profiler_overhead_row(doc):
    """The profiler's A/B self-overhead as one report line, or None when
    the document ran without the profiler. Informational, never a pass or
    a failure: an A/B that could not resolve the cost (negative fraction,
    or perf_smoke's self_overhead_resolved false because the arms' leg
    walls overlap) prints as UNRESOLVED instead of reading like a
    measurement. Documents from before the field existed are judged on
    the fraction's sign alone."""
    profile = doc.get("profile") or {}
    if not profile.get("enabled"):
        return None
    frac = profile.get("self_overhead_fraction")
    if isinstance(frac, bool) or not isinstance(frac, (int, float)):
        return "profiler self-overhead UNRESOLVED (no A/B figure)"
    resolved = profile.get("self_overhead_resolved")
    if not isinstance(resolved, bool):
        resolved = True  # Older document: only the sign below can tell.
    if resolved and frac >= 0.0:
        return (f"profiler self-overhead {frac * 100.0:.1f}% "
                "(A/B resolved; informational)")
    return (f"profiler self-overhead UNRESOLVED (A/B fraction {frac:+.4f}: "
            "the arms' leg walls overlap or the profiled arm ran faster, "
            "so this is noise, not a cost)")


def shards_check(current, args):
    """Absolute checks on the current document's sharded-kernel block (no
    baseline needed; fire even when the relative comparisons degrade). With
    sharding enabled the block must be well-formed, report zero cross-shard
    direct calls (the colocation contract), and — when the host actually
    has a core per shard — hit --min-scale-efficiency. A host with fewer
    cores than shards cannot speed up no matter how good the kernel is, so
    there the efficiency number is recorded as an advisory honesty figure,
    not enforced."""
    failures = []
    shards = current.get("shards")
    if shards is None:
        return failures  # Pre-sharding document (old binary): nothing to check.
    if not shards.get("enabled"):
        return failures
    required = ("shards", "host_cores", "events_per_sec_sharded",
                "events_per_sec_single", "speedup", "scale_efficiency",
                "cross_shard_direct_calls")
    missing = [k for k in required if not isinstance(shards.get(k),
                                                     (int, float))
               or isinstance(shards.get(k), bool)]
    if missing:
        failures.append(
            f"shards block malformed: missing/non-numeric {missing}")
        return failures
    if shards["cross_shard_direct_calls"] != 0:
        failures.append(
            f"{shards['cross_shard_direct_calls']} cross-shard direct "
            "call(s) inside parallel windows — colocation contract broken")
    n, cores = int(shards["shards"]), int(shards["host_cores"])
    eff = float(shards["scale_efficiency"])
    print(f"perf_gate: sharded kernel {n} shards on {cores} core(s): "
          f"speedup {shards['speedup']:.2f}x, efficiency {eff:.2f} "
          f"(floor {args.min_scale_efficiency:.2f})")
    if cores < n:
        print(f"perf_gate: ADVISORY host has {cores} core(s) for {n} "
              "shards — scale efficiency is recorded, not enforced")
    elif eff < args.min_scale_efficiency:
        failures.append(
            f"scale efficiency {eff:.2f} below the floor "
            f"{args.min_scale_efficiency:.2f} at {n} shards on "
            f"{cores} cores")
    return failures


def run_gate(baseline, current, args):
    """Returns a list of failure messages (empty = pass)."""
    failures = []
    failures += recorder_check(current, args)
    failures += shards_check(current, args)
    for label, doc in (("baseline", baseline), ("current", current)):
        row = profiler_overhead_row(doc)
        if row is not None:
            print(f"perf_gate: {label} {row}")

    if not same_workload(baseline, current):
        print("perf_gate: workload config differs from baseline — "
              "skipping throughput and overhead comparison")
        return report_failures(failures, baseline, current)

    for key in BEHAVIOUR_KEYS:
        if baseline.get(key) != current.get(key):
            failures.append(
                f"behaviour drift: {key} {baseline.get(key)!r} -> "
                f"{current.get(key)!r} under the same fixed-seed config")

    base_eps = throughput(baseline)
    cur_eps = throughput(current)
    if base_eps is None or cur_eps is None:
        # Same degradation as a config mismatch: say so out loud instead of
        # dividing by a zero/absent figure (or silently passing).
        print("perf_gate: events_per_sec unusable "
              f"(baseline={baseline.get('events_per_sec')!r}, "
              f"current={current.get('events_per_sec')!r}) — "
              "skipping throughput comparison (advisory)")
    else:
        drop = 1.0 - cur_eps / base_eps
        print(f"perf_gate: events_per_sec {base_eps:.0f} -> {cur_eps:.0f}"
              f" ({-drop * 100.0:+.1f}%, limit -{args.max_eps_regression * 100.0:.0f}%)")
        if drop > args.max_eps_regression:
            failures.append(
                f"events_per_sec regressed {drop * 100.0:.1f}% "
                f"({base_eps:.0f} -> {cur_eps:.0f}), limit "
                f"{args.max_eps_regression * 100.0:.0f}%")

    # Sharded-throughput history: like events_per_sec, but for the N-shard
    # scaling leg. Only comparable when both documents ran the same shard
    # count (the block self-identifies).
    base_sh = baseline.get("shards") or {}
    cur_sh = current.get("shards") or {}
    if (base_sh.get("enabled") and cur_sh.get("enabled")
            and base_sh.get("shards") == cur_sh.get("shards")):
        b = base_sh.get("events_per_sec_sharded")
        c = cur_sh.get("events_per_sec_sharded")
        if (isinstance(b, (int, float)) and not isinstance(b, bool) and b > 0
                and isinstance(c, (int, float)) and not isinstance(c, bool)
                and c > 0):
            drop = 1.0 - c / b
            print(f"perf_gate: sharded events_per_sec {b:.0f} -> {c:.0f}"
                  f" ({-drop * 100.0:+.1f}%, limit "
                  f"-{args.max_eps_regression * 100.0:.0f}%)")
            if drop > args.max_eps_regression:
                failures.append(
                    f"sharded events_per_sec regressed {drop * 100.0:.1f}% "
                    f"({b:.0f} -> {c:.0f}) at {cur_sh.get('shards')} shards, "
                    f"limit {args.max_eps_regression * 100.0:.0f}%")

    base_inv = baseline.get("invariants", {})
    cur_inv = current.get("invariants", {})
    if base_inv.get("enabled") and cur_inv.get("enabled"):
        base_of = base_inv.get("overhead_fraction", 0.0)
        cur_of = cur_inv.get("overhead_fraction", 0.0)
        growth = cur_of - base_of
        print(f"perf_gate: invariant overhead_fraction {base_of:.4f} -> "
              f"{cur_of:.4f} ({growth * 100.0:+.2f}pp, limit "
              f"+{args.max_overhead_growth * 100.0:.0f}pp, ceiling "
              f"{args.max_overhead_fraction:.2f})")
        if growth > args.max_overhead_growth:
            failures.append(
                f"invariant overhead_fraction grew {growth * 100.0:.2f}pp "
                f"({base_of:.4f} -> {cur_of:.4f}), limit "
                f"{args.max_overhead_growth * 100.0:.0f}pp")
        if cur_of > args.max_overhead_fraction:
            if base_of > args.max_overhead_fraction:
                # The committed baseline itself sits above the ceiling: the
                # absolute gate has not armed yet (the growth check above
                # still holds the line). Hard-failing here would turn every
                # CI run red until the remaining overhead work lands, so
                # degrade to the advisory path like a config mismatch.
                print(
                    f"perf_gate: ADVISORY invariant overhead_fraction "
                    f"{cur_of:.4f} exceeds the absolute ceiling "
                    f"{args.max_overhead_fraction:.2f}, but so does the "
                    f"baseline ({base_of:.4f}) — ceiling arms once the "
                    "baseline complies")
            else:
                failures.append(
                    f"invariant overhead_fraction {cur_of:.4f} exceeds the "
                    f"absolute ceiling {args.max_overhead_fraction:.2f} "
                    "(growth vs baseline is not a defense)")

    return report_failures(failures, baseline, current)


def report_failures(failures, baseline, current):
    if failures:
        print("perf_gate: REGRESSION", file=sys.stderr)
        for failure in failures:
            print(f"perf_gate:   {failure}", file=sys.stderr)
        print("perf_gate: profile diff (baseline -> current, by |delta|):",
              file=sys.stderr)
        for line in profile_diff(baseline, current):
            print(line, file=sys.stderr)
    return failures


def self_test(args):
    """Prove the gate trips on seeded synthetic regressions (and passes on a
    clean doc). Exercises both thresholds and the config-mismatch guard."""
    baseline = {
        "config": {"nodes": 256, "objects": 512000, "queries": 100,
                   "seed": 780741, "repeats": 3, "replicate": True,
                   "profile": True},
        "events_per_sec": 250000.0,
        "events": 8300000, "messages": 7300000, "bytes": 802000000,
        "captures": 972800, "queries_ok": 100, "queries_failed": 0,
        "sim_time_ms": 45650.0,
        "invariants": {"enabled": True, "overhead_fraction": 0.05},
        "profile": {"enabled": True, "scopes": [
            {"name": "tracking.index_write_group", "excl_ms": 1500.0},
            {"name": "rpc.track.replica", "excl_ms": 900.0},
        ]},
    }

    clean = copy.deepcopy(baseline)
    clean["events_per_sec"] = 245000.0  # -2%: within the 15% budget.
    if run_gate(baseline, clean, args):
        print("perf_gate self-test: clean run failed the gate", file=sys.stderr)
        return 1

    slow = copy.deepcopy(baseline)
    slow["events_per_sec"] = 200000.0  # -20%: must trip.
    slow["profile"]["scopes"][0]["excl_ms"] = 4200.0  # The seeded culprit.
    if not run_gate(baseline, slow, args):
        print("perf_gate self-test: 20% throughput regression passed the gate",
              file=sys.stderr)
        return 1

    drifted = copy.deepcopy(clean)
    drifted["messages"] += 1  # One extra message, speed unchanged: must trip.
    if not run_gate(baseline, drifted, args):
        print("perf_gate self-test: a one-message behaviour drift passed "
              "the gate", file=sys.stderr)
        return 1

    heavy = copy.deepcopy(baseline)
    heavy["invariants"]["overhead_fraction"] = 0.09  # +4pp: must trip.
    if not run_gate(baseline, heavy, args):
        print("perf_gate self-test: +4pp overhead growth passed the gate",
              file=sys.stderr)
        return 1

    rescaled = copy.deepcopy(slow)
    rescaled["config"]["objects"] = 40000  # Different workload...
    rescaled["invariants"]["overhead_fraction"] = 0.30  # ...where fixed scan
    if run_gate(baseline, rescaled, args):  # costs inflate the fraction.
        print("perf_gate self-test: cross-config metrics were compared",
              file=sys.stderr)
        return 1

    # A zero, absent, or non-numeric events_per_sec on either side must take
    # the explicit advisory path — not ZeroDivisionError, not a silent pass
    # pretending throughput was compared.
    for bad in (0.0, None, "n/a"):
        degraded = copy.deepcopy(baseline)
        if bad is None:
            del degraded["events_per_sec"]
        else:
            degraded["events_per_sec"] = bad
        if run_gate(degraded, clean, args):
            print(f"perf_gate self-test: baseline eps={bad!r} failed the gate "
                  "instead of degrading to the advisory", file=sys.stderr)
            return 1
        if run_gate(baseline, degraded, args):
            print(f"perf_gate self-test: current eps={bad!r} failed the gate "
                  "instead of degrading to the advisory", file=sys.stderr)
            return 1

    # The absolute ceiling trips on its own once the baseline complies:
    # small growth (well under the growth limit) is no defense when the
    # current fraction sits above --max-overhead-fraction.
    armed = copy.deepcopy(baseline)
    armed["invariants"]["overhead_fraction"] = 0.115
    over_ceiling = copy.deepcopy(baseline)
    over_ceiling["invariants"]["overhead_fraction"] = 0.125
    if not run_gate(armed, over_ceiling, args):
        print("perf_gate self-test: overhead above the absolute ceiling "
              "passed the gate (growth was under the limit)", file=sys.stderr)
        return 1

    # ...but while the committed baseline itself exceeds the ceiling, the
    # absolute check is advisory (the growth limit still holds the line) —
    # otherwise every CI run is red until the remaining overhead work lands.
    unarmed = copy.deepcopy(baseline)
    unarmed["invariants"]["overhead_fraction"] = 0.18
    still_over = copy.deepcopy(baseline)
    still_over["invariants"]["overhead_fraction"] = 0.185
    if run_gate(unarmed, still_over, args):
        print("perf_gate self-test: un-armed ceiling (baseline above it) "
              "failed the gate instead of degrading to the advisory",
              file=sys.stderr)
        return 1

    # The culprit diff must keep naming scopes that exist on only one side
    # (renamed/fused since the baseline), tagged as such.
    renamed = copy.deepcopy(baseline)
    renamed["profile"]["scopes"] = [
        {"name": "invariant.object_fused", "excl_ms": 700.0},
        {"name": "rpc.track.replica", "excl_ms": 900.0},
    ]
    diff = "\n".join(profile_diff(baseline, renamed))
    if ("tracking.index_write_group" not in diff
            or "[only in baseline]" not in diff
            or "invariant.object_fused" not in diff
            or "[only in current]" not in diff):
        print("perf_gate self-test: profile diff lost a renamed scope:\n"
              f"{diff}", file=sys.stderr)
        return 1

    # Flight-recorder gate, cheap case: recorder on, obs.recorder.* scope
    # present and well under the fraction limit — must pass.
    recorded = copy.deepcopy(baseline)
    recorded["recorder"] = {"enabled": True, "events_per_actor": 256,
                            "events_recorded": 1000000,
                            "forensic_bundles": 0}
    recorded["profile"]["measured_wall_ms"] = 1000.0
    recorded["profile"]["scopes"].append(
        {"name": "obs.recorder.append", "category": "obs.recorder",
         "excl_ms": 5.0})
    if run_gate(baseline, recorded, args):
        print("perf_gate self-test: cheap always-on recorder failed the gate",
              file=sys.stderr)
        return 1

    # Coverage: recorder claimed on, but no obs.recorder.* scope in the
    # profile — the cost is unaccounted, the gate must say so.
    uncovered = copy.deepcopy(recorded)
    uncovered["profile"]["scopes"] = copy.deepcopy(
        baseline["profile"]["scopes"])
    if not run_gate(baseline, uncovered, args):
        print("perf_gate self-test: recorder without an obs.recorder scope "
              "passed the coverage check", file=sys.stderr)
        return 1

    # Overhead: recorder burning 8% of the measured wall (limit 5%) — the
    # always-on contract is broken, must trip.
    hot = copy.deepcopy(recorded)
    hot["profile"]["scopes"][-1]["excl_ms"] = 80.0
    if not run_gate(baseline, hot, args):
        print("perf_gate self-test: 8% recorder overhead passed the gate",
              file=sys.stderr)
        return 1

    # The recorder checks are absolute: they fire even when the workload
    # config differs and the relative comparisons degrade to advisory.
    hot_rescaled = copy.deepcopy(hot)
    hot_rescaled["config"]["objects"] = 40000
    if not run_gate(baseline, hot_rescaled, args):
        print("perf_gate self-test: recorder overhead escaped the gate via "
              "a config mismatch", file=sys.stderr)
        return 1

    # Sharded kernel: a healthy block (8 shards on 8 cores, efficiency over
    # the floor, zero direct calls) must pass, with the sharded-throughput
    # history compared alongside the primary one.
    sharded = copy.deepcopy(baseline)
    sharded["shards"] = {"enabled": True, "shards": 8, "host_cores": 8,
                         "delegation": False,
                         "events_per_sec_sharded": 1000000.0,
                         "events_per_sec_single": 230000.0,
                         "speedup": 4.35, "scale_efficiency": 0.54,
                         "windows": 9000, "cross_shard_messages": 400000,
                         "deferrals": 12, "cross_shard_direct_calls": 0}
    if run_gate(sharded, copy.deepcopy(sharded), args):
        print("perf_gate self-test: healthy shards block failed the gate",
              file=sys.stderr)
        return 1

    # A colocation breach (nonzero cross-shard direct calls) must trip even
    # when every throughput number is fine.
    breached = copy.deepcopy(sharded)
    breached["shards"]["cross_shard_direct_calls"] = 3
    if not run_gate(sharded, breached, args):
        print("perf_gate self-test: cross-shard direct calls passed the gate",
              file=sys.stderr)
        return 1

    # A malformed block (missing a required figure) must trip, not crash.
    malformed = copy.deepcopy(sharded)
    del malformed["shards"]["scale_efficiency"]
    if not run_gate(sharded, malformed, args):
        print("perf_gate self-test: malformed shards block passed the gate",
              file=sys.stderr)
        return 1

    # Sharded-throughput regression: -20% on the N-shard leg must trip even
    # when the primary single-threaded number held steady.
    shard_slow = copy.deepcopy(sharded)
    shard_slow["shards"]["events_per_sec_sharded"] = 780000.0
    if not run_gate(sharded, shard_slow, args):
        print("perf_gate self-test: 22% sharded regression passed the gate",
              file=sys.stderr)
        return 1

    # Efficiency floor: 0.3 at 8 shards on an 8-core host must trip...
    inefficient = copy.deepcopy(sharded)
    inefficient["shards"]["speedup"] = 2.4
    inefficient["shards"]["scale_efficiency"] = 0.3
    inefficient["shards"]["events_per_sec_sharded"] = 552000.0
    if not run_gate(sharded, inefficient, args):
        print("perf_gate self-test: 0.3 scale efficiency on an 8-core host "
              "passed the gate", file=sys.stderr)
        return 1

    # ...but the same figure on a 1-core host is an advisory honesty record
    # (no parallel speedup is physically possible there).
    small_host = copy.deepcopy(inefficient)
    small_host["shards"]["host_cores"] = 1
    small_base = copy.deepcopy(sharded)
    small_base["shards"]["host_cores"] = 1
    small_base["shards"]["events_per_sec_sharded"] = 552000.0
    if run_gate(small_base, small_host, args):
        print("perf_gate self-test: sub-floor efficiency on a 1-core host "
              "failed the gate instead of degrading to the advisory",
              file=sys.stderr)
        return 1

    # An unresolved profiler A/B prints as UNRESOLVED — never as a
    # measured overhead — and is informational, so it cannot fail the gate;
    # documents without the self_overhead_resolved field (older baselines)
    # are still read, by the fraction's sign.
    negative = copy.deepcopy(clean)
    negative["profile"]["self_overhead_fraction"] = -0.144
    negative["profile"]["self_overhead_resolved"] = False
    legacy = copy.deepcopy(clean)
    legacy["profile"]["self_overhead_fraction"] = -0.144
    overlapping = copy.deepcopy(clean)
    overlapping["profile"]["self_overhead_fraction"] = 0.02
    overlapping["profile"]["self_overhead_resolved"] = False
    for name, doc in (("negative fraction", negative),
                      ("negative fraction without the field", legacy),
                      ("overlapping arms", overlapping)):
        row = profiler_overhead_row(doc) or ""
        if "UNRESOLVED" not in row:
            print(f"perf_gate self-test: {name} did not print as "
                  f"UNRESOLVED: {row!r}", file=sys.stderr)
            return 1
        if run_gate(baseline, doc, args):
            print(f"perf_gate self-test: {name} failed the gate (the row "
                  "is informational)", file=sys.stderr)
            return 1
    measured = copy.deepcopy(clean)
    measured["profile"]["self_overhead_fraction"] = 0.03
    measured["profile"]["self_overhead_resolved"] = True
    if "UNRESOLVED" in (profiler_overhead_row(measured) or "UNRESOLVED"):
        print("perf_gate self-test: a resolved 3% overhead printed as "
              "UNRESOLVED", file=sys.stderr)
        return 1

    # Pre-sharding documents (no block at all) stay silently compatible.
    if run_gate(baseline, copy.deepcopy(clean), args):
        print("perf_gate self-test: document without a shards block failed",
              file=sys.stderr)
        return 1

    print("perf_gate self-test: OK (clean passes, seeded regressions fail)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed BENCH.json")
    parser.add_argument("--current", help="freshly produced BENCH.json")
    parser.add_argument("--max-eps-regression", type=float, default=0.15,
                        help="max fractional events_per_sec drop (default 0.15)")
    parser.add_argument("--max-overhead-growth", type=float, default=0.03,
                        help="max invariant overhead_fraction growth in "
                             "absolute terms (default 0.03 = 3pp)")
    parser.add_argument("--max-overhead-fraction", type=float, default=0.12,
                        help="absolute invariant overhead_fraction ceiling, "
                             "independent of the baseline (default 0.12)")
    parser.add_argument("--max-recorder-fraction", type=float, default=0.05,
                        help="max fraction of the measured wall the flight "
                             "recorder's obs.recorder.* scopes may consume "
                             "when recording is on (default 0.05). This "
                             "bounds profiled attribution only: the "
                             "wall-clock A/B (recorder on vs "
                             "--recorder-events=0, S=1, profiler and monitor "
                             "off) measured +17.7%% and +22.1%% index wall "
                             "(ROADMAP.md item 6), which this gate does not "
                             "see")
    parser.add_argument("--min-scale-efficiency", type=float, default=0.5,
                        help="minimum scale_efficiency (speedup / shards) the "
                             "sharded kernel must hit when the host has at "
                             "least one core per shard (default 0.5 = 4x at "
                             "8 shards); advisory on smaller hosts")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in synthetic-regression check")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(args))
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or --self-test)")

    failures = run_gate(load(args.baseline), load(args.current), args)
    if failures:
        sys.exit(1)
    print("perf_gate: OK")
    sys.exit(0)


if __name__ == "__main__":
    main()
