"""Output checks on the driver's per-repetition records.

A repetition passes when its simulated outputs account for exactly the
input the benchmark generated, and its report digest matches the other
repetitions of the same seed. A failed check counts as a failed
operation; it never changes a timing.
"""

from collections import Counter


def rep_failures(workload, expected, rec):
    """Reasons one driver record fails its output check (empty: pass).

    expected holds what the generated input implies: "requests" for the
    fleet workloads (plus "sum_outputs", the generated trace's total
    output length, once it is known), "points" for the sweeps (and
    "requests_per_point" for traced).
    """
    if "error" in rec:
        return [rec["error"]]
    facts = rec["facts"]
    out = []
    if workload in ("replay", "control"):
        served = facts["completed"] + facts["cancelled"]
        if served != expected["requests"]:
            out.append(f"completed + cancelled = {served}, "
                       f"generated {expected['requests']}")
        if facts.get("generated", expected["requests"]) != \
                expected["requests"]:
            out.append(f"trace produced {facts['generated']} requests, "
                       f"scenario asked for {expected['requests']}")
        if workload == "replay" and "sum_outputs" in expected and \
                facts["delivered"] != expected["sum_outputs"]:
            out.append(f"delivered {facts['delivered']} tokens, trace "
                       f"asked for {expected['sum_outputs']}")
    else:
        if rec["points"] != expected["points"]:
            out.append(f"{rec['points']} points costed, grid has "
                       f"{expected['points']}")
        if workload == "design_sweep" and facts["bad_points"]:
            out.append(f"{facts['bad_points']} points not finite and "
                       "positive")
        if workload == "traced" and \
                facts["completed"] + facts["cancelled"] != \
                expected["points"] * expected["requests_per_point"]:
            out.append("traced sweep did not serve every request")
    return out


def digest_failures(records):
    """Indices of records whose sim_digest differs from the one most
    repetitions agree on (all reps of one seed must be identical)."""
    digests = [r["digest"] for r in records if "digest" in r]
    if not digests:
        return []
    ref, _ = Counter(digests).most_common(1)[0]
    return [i for i, r in enumerate(records)
            if "digest" in r and r["digest"] != ref]


def failed_reps(workload, expected, records):
    """{index: [reasons]} over every record of one seed."""
    bad = {}
    for i, rec in enumerate(records):
        reasons = rep_failures(workload, expected, rec)
        if reasons:
            bad[i] = reasons
    for i in digest_failures(records):
        bad.setdefault(i, []).append(
            f"sim_digest {records[i]['digest']} differs from the other "
            "repetitions of this seed")
    return bad
