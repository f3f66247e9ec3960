"""Scenario generators for the four benchmark workloads.

Each generator is a pure function of the benchmark seed: the seed picks
the simulator's random streams (trace seeds, which also draw request
lengths) and, for design_sweep, the length pairing and the scale
targets. Shape parameters stay fixed, so
every seed asks for the same amount of work and run-to-run spread comes
from the host, not the input. The program only ever sees the generated
scenario documents (a list; design_sweep has one per length pair).
"""

import random

# Requests per run of each fleet workload. replay is the fleet_replay
# preset's shape at a size where one repetition takes about a second.
REPLAY_REQUESTS = 400_000
CONTROL_REQUESTS = 150_000

ZOO = ["retnet-2.7b", "gla-2.7b", "hgrn2-2.7b", "mamba2-2.7b",
       "zamba2-7b", "opt-7b"]
SYSTEMS_4 = ["gpu", "gpu+q", "gpu+pim", "pimba"]
SYSTEMS_5 = SYSTEMS_4 + ["neupims"]
SWEEP_GPUS = [1, 2, 4, 8]
SWEEP_BATCHES = [1, 2, 4, 8, 16, 32, 64, 128, 256]
SWEEP_LENGTHS = [1024, 2048, 3072, 4096]
# Scale-target strata (parameters) the seed draws within.
SWEEP_SCALES = [(13e9, 15e9), (65e9, 70e9)]

TWO_TENANTS = [
    {"name": "interactive", "weight": 3, "lengths": "uniform",
     "inputLen": 64, "inputLenMax": 256,
     "outputLen": 16, "outputLenMax": 64},
    {"name": "batch", "weight": 1, "lengths": "uniform",
     "inputLen": 256, "inputLenMax": 1024,
     "outputLen": 64, "outputLenMax": 256},
]


def _trace_seed(rng):
    return rng.randrange(1, 2**32)


def replay(seed, out_dir):
    """fleet_replay shape: 4x Pimba behind JSQ, diurnal, two tenants."""
    rng = random.Random(f"replay/{seed}")
    return [{
        "name": "perfbench_replay",
        "kind": "fleet",
        "model": "mamba2-2.7b",
        "observability": {"streamMetrics": True},
        "fleet": {"label": "4x pimba", "router": "jsq",
                  "replicas": [{"system": "pimba", "count": 4}]},
        "trace": {
            "arrivals": "diurnal",
            "rate": 40,
            "numRequests": REPLAY_REQUESTS,
            "diurnal": {"periodSec": 3600, "peakToTrough": 3},
            "classes": TWO_TENANTS,
            "seed": _trace_seed(rng),
        },
    }]


def control(seed, out_dir):
    """MMPP bursts over two tiers: autoscaler, deadlines, affinity.
    Baseline load fits one or two replicas and bursts need all four, so
    the autoscaler cycles; the batch tier's total deadline cancels
    running requests and the interactive TTFT deadline queued ones."""
    rng = random.Random(f"control/{seed}")
    return [{
        "name": "perfbench_control",
        "kind": "control",
        "model": "mamba2-2.7b",
        "observability": {"streamMetrics": True},
        "fleets": [{
            "label": "controlled 4x pimba",
            "router": "cache-affinity",
            "replicas": [{"system": "pimba", "count": 4}],
            "priorities": [1, 0],
            "deadlines": [{"ttftSec": 0.5}, {"totalSec": 4.0}],
            "controlPlane": {
                "enabled": True,
                "minReplicas": 1,
                "maxReplicas": 4,
                "initialReplicas": 2,
                "intervalSec": 2,
                "scaleUpQueueDepth": 6,
                "scaleDownQueueDepth": 1,
                "warmupSec": 2,
                "prefixTokens": [128, 0],
            },
        }],
        "trace": {
            "arrivals": "mmpp",
            "rate": 12,
            "numRequests": CONTROL_REQUESTS,
            "mmpp": {"burstMultiplier": 10, "burstMeanSec": 2.0,
                     "idleMeanSec": 20.0},
            "classes": [dict(TWO_TENANTS[0], weight=1),
                        dict(TWO_TENANTS[1], weight=3)],
            "seed": _trace_seed(rng),
        },
    }]


def traced(seed, out_dir):
    """serving_rate_sweep shape with the tracer and timeline on.

    Two departures from the preset keep the work the same for every
    seed. Arrivals are fixed-rate and the seed draws uniform lengths
    around the preset's 512/256: a 64-request Poisson trace per point
    moves the event count by +-25% between seeds. And the model is the
    hybrid Zamba2 (state update plus attention), so PIM systems emit
    all three phase lanes the trace check requires. 80 requests per
    point put the rendered trace near 30 MB, clear of the render
    string's capacity doublings (21 and 42 MB), each of which moves peak
    memory by a fifth."""
    rng = random.Random(f"traced/{seed}")
    return [{
        "name": "perfbench_traced",
        "kind": "serving",
        "systems": SYSTEMS_5,
        "rates": [1, 2, 4, 8, 16, 32, 64],
        "modes": ["blocked"],
        "model": "zamba2-7b",
        "engine": {"maxBatch": 64},
        "trace": {"arrivals": "fixed", "numRequests": 80,
                  "lengths": "uniform",
                  "inputLen": 448, "inputLenMax": 576,
                  "outputLen": 224, "outputLenMax": 288,
                  "seed": _trace_seed(rng)},
        "observability": {"trace": f"{out_dir}/trace.json",
                          "timeline": f"{out_dir}/timeline.csv"},
    }]


def design_sweep(seed, out_dir):
    """fig12-shaped throughput grids, widened: six models at base size
    and two seeded scale targets, 1-8 GPUs, batches 1-256, four systems,
    one scenario per (input, output) length pair. The seed pairs a fixed
    set of input lengths with a shuffled fixed set of output lengths, so
    the total decode-window length (and the work) is the same for every
    seed."""
    rng = random.Random(f"design_sweep/{seed}")
    outputs = list(SWEEP_LENGTHS)
    rng.shuffle(outputs)
    models = list(ZOO)
    for base in ZOO:
        for lo, hi in SWEEP_SCALES:
            models.append({"base": base,
                           "scaleTo": round(rng.uniform(lo, hi), -6)})
    return [{
        "name": f"perfbench_design_sweep_{i}",
        "kind": "throughput",
        "systems": SYSTEMS_4,
        "inputLen": input_len,
        "outputLen": output_len,
        "grids": [{"label": f"{n}x A100", "gpu": "a100", "nGpus": n,
                   "models": models, "batches": SWEEP_BATCHES}
                  for n in SWEEP_GPUS],
    } for i, (input_len, output_len) in enumerate(zip(SWEEP_LENGTHS,
                                                      outputs))]


GENERATORS = {
    "replay": replay,
    "control": control,
    "traced": traced,
    "design_sweep": design_sweep,
}


def expected(workload, scenarios):
    """What a correct run must account for, derived from the input."""
    if workload in ("replay", "control"):
        return {"requests": scenarios[0]["trace"]["numRequests"]}
    if workload == "traced":
        s = scenarios[0]
        return {"points": len(s["systems"]) * len(s["rates"]) *
                len(s["modes"]),
                "requests_per_point": s["trace"]["numRequests"]}
    return {"points": sum(len(g["models"]) * len(g["batches"]) *
                          len(s["systems"])
                          for s in scenarios for g in s["grids"])}
