"""Metric arithmetic of the session benchmark.

Turns the raw observations the sessionbench binary prints (set-up times,
Run() segments with the arrival time of each round-ledger record, per-session
check verdicts and digests) into the end-to-end metrics. Pure functions, so
test_metrics.py can pin them on fixed inputs.
"""

import statistics

# Candidate tail percentiles, highest first; the tail metric uses the first
# one that leaves at least MIN_BEYOND rounds above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Rounds averaged at each end of a session for round_growth.
GROWTH_WINDOW = 10


def round_latencies(segment):
    """Latency of each round of one Run() call, in ms.

    A round's latency is the time between consecutive round completions;
    the first round of a segment is measured from the Run() call itself.
    """
    latencies = []
    previous = segment["start_ms"]
    for arrival in segment["arrival_ms"]:
        latencies.append(arrival - previous)
        previous = arrival
    return latencies


def session_latencies(session):
    """Round latencies of a session, across its Run() segments, in order."""
    out = []
    for segment in session["segments"]:
        out.extend(round_latencies(segment))
    return out


def percentile(values, p):
    """p-th percentile with linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND samples above it."""
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def round_growth(latencies):
    """Mean latency of the last GROWTH_WINDOW rounds over the first's."""
    if len(latencies) < GROWTH_WINDOW:
        raise ValueError("round_growth needs at least %d rounds" % GROWTH_WINDOW)
    first = statistics.fmean(latencies[:GROWTH_WINDOW])
    last = statistics.fmean(latencies[-GROWTH_WINDOW:])
    return last / first


def failed_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def inconsistent_sessions(sessions):
    """Indices of sessions whose SV/weights digests or chain tip differ from
    the run's most common ones (every session of a run has the same seed)."""
    keys = [(s["sv_digest"], s["weights_digest"], s["tip_hash"]) for s in sessions]
    if not keys:
        return []
    reference = max(set(keys), key=keys.count)
    return [i for i, key in enumerate(keys) if key != reference]


def session_failures(sessions):
    """Failed rounds per session: the binary's own verdicts, plus every round
    of a session that disagrees with the others of its run."""
    failed = [int(s["rounds_failed"]) for s in sessions]
    for i in inconsistent_sessions(sessions):
        failed[i] = int(sessions[i]["rounds_expected"])
    return failed


def end_to_end(raw):
    """End-to-end metrics of an untraced run, in the units BENCHMARK.json
    declares, plus details: how the tail was taken, and round_growth."""
    sessions = raw["sessions"]
    latencies = [session_latencies(s) for s in sessions]
    all_latencies = [x for per in latencies for x in per]
    run_ms = sum(seg["end_ms"] - seg["start_ms"]
                 for s in sessions for seg in s["segments"])
    tail_p = tail_percentile(len(all_latencies))
    durable = any(s["resume_s"] > 0 for s in sessions)
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "rounds_per_s": 1e3 * len(all_latencies) / run_ms,
        "round_ms_p50": percentile(all_latencies, 50.0),
        "round_ms_tail": percentile(all_latencies, tail_p),
        # With a state dir: AttachPersistence{resume} after the kill.
        # In memory: the outside genesis->tip replay, the part of a restart
        # that rebuilds the chain state.
        "resume_s": statistics.median(
            s["resume_s"] if durable else s["replay_s"] for s in sessions),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "round_ms_tail_percentile": tail_p,
        "round_samples": len(all_latencies),
        "round_growth": statistics.median(round_growth(x) for x in latencies),
        "sessions": len(sessions),
        "setup_samples": len(raw["setup_s"]),
        "resume_s_source": "attach_resume" if durable else "chain_replay",
    }
    return metrics, details
