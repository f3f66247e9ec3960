/**
 * @file
 * Benchmark driver: one repetition of one workload per process.
 *
 * perfbench/run.py generates a scenario file from the benchmark seed
 * and runs this binary once per repetition. The binary loads the
 * scenario through the config layer, runs it through the simulator's
 * public entry points, and prints one JSON record on stdout:
 *
 *  - host-time phase split of the run: setup (scenario parse and
 *    validate, construction, opening the arrival source — everything
 *    before the first simulated event), simulate, and report
 *    (canonical report text, trace rendering);
 *  - peak resident memory of this process;
 *  - the facts the output checks need and an FNV-1a digest of the
 *    canonical text of every simulated report field;
 *  - with --spans: per-layer span totals, self times and counts, the
 *    layer probes (engine session API, cold/warm step and PIM kernel
 *    calls), and the span log written to the given file.
 *
 * Times are host seconds from std::chrono::steady_clock; simulated
 * statistics are outputs only and land in the digest.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "config/runner.h"
#include "config/scenario.h"
#include "pim/pim_compute.h"
#include "serving/engine.h"
#include "serving/trace_io.h"
#include "sim/serving_sim.h"

using namespace pimba;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ spans

/// In-memory span log: name, start, end, parent and call count per
/// span, written out once at exit. A null log (spans off) makes every
/// recording a no-op, so the untraced run pays one branch per call.
class SpanLog
{
  public:
    struct Span
    {
        std::string name; ///< "<layer>.<what>", layer = src/ module
        int parent = -1;
        double start = 0.0; ///< host seconds since the log was created
        double end = 0.0;
        uint64_t calls = 1; ///< > 1 for aggregated per-call spans
    };

    int
    open(const std::string &name)
    {
        spans.push_back({name, current, now(), 0.0, 1});
        current = static_cast<int>(spans.size()) - 1;
        return current;
    }

    void
    close(int idx)
    {
        spans[static_cast<size_t>(idx)].end = now();
        current = spans[static_cast<size_t>(idx)].parent;
    }

    /// A child of @p parent summarizing @p calls timed calls that
    /// together took @p seconds (per-request calls are too many to log
    /// one by one without the log dominating the run).
    void
    aggregate(const std::string &name, int parent, double seconds,
              uint64_t calls)
    {
        const double start = spans[static_cast<size_t>(parent)].start;
        spans.push_back({name, parent, start, start + seconds, calls});
    }

    /// Span duration minus the part its direct children cover.
    double
    selfTime(size_t i) const
    {
        double self = spans[i].end - spans[i].start;
        for (const Span &s : spans)
            if (s.parent == static_cast<int>(i))
                self -= s.end - s.start;
        return self;
    }

    /// Self time summed per layer (the span-name prefix before '.').
    std::map<std::string, double>
    layerSelfTimes() const
    {
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans.size(); ++i) {
            const std::string &n = spans[i].name;
            out[n.substr(0, n.find('.'))] += selfTime(i);
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"spans\": [");
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"parent\": %d, \"start_s\": %.9f, "
                         "\"end_s\": %.9f, \"calls\": %" PRIu64 "}",
                         i ? "," : "", i, s.name.c_str(), s.parent,
                         s.start, s.end, s.calls);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double now() const { return secondsSince(origin); }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    int current = -1;
};

/// RAII span; no-op on a null log.
class SpanScope
{
  public:
    SpanScope(SpanLog *log_, const std::string &name)
        : log(log_), idx(log_ ? log_->open(name) : -1)
    {}
    ~SpanScope()
    {
        if (log)
            log->close(idx);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return idx; }

  private:
    SpanLog *log;
    int idx;
};

/// ArrivalSource wrapper timing every next() call (spans-on runs only).
class TimedArrivals : public ArrivalSource
{
  public:
    explicit TimedArrivals(ArrivalSource &inner_) : inner(inner_) {}

    bool
    next(Request &out) override
    {
        const auto t0 = Clock::now();
        const bool ok = inner.next(out);
        seconds += secondsSince(t0);
        ++calls;
        return ok;
    }

    double seconds = 0.0;
    uint64_t calls = 0;

  private:
    ArrivalSource &inner;
};

// ------------------------------------------------ canonical reports

/// Canonical text of simulated results: every field, %.17g doubles,
/// so two runs agree byte for byte exactly when their reports do.
class Canon
{
  public:
    void
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s=%.17g\n", key, v);
        text += buf;
    }
    void
    count(const char *key, uint64_t v)
    {
        text += std::string(key) + "=" + std::to_string(v) + "\n";
    }
    void line(const std::string &s) { text += s + "\n"; }

    void
    summary(const char *key, const LatencySummary &s)
    {
        line(key);
        count(" count", s.count);
        num(" mean", s.mean);
        num(" min", s.min);
        num(" p50", s.p50);
        num(" p95", s.p95);
        num(" p99", s.p99);
        num(" max", s.max);
    }

    void
    metrics(const ServingMetrics &m)
    {
        count("requests", m.requests);
        count("generatedTokens", m.generatedTokens);
        num("makespan", m.makespan.value());
        num("tokensPerSec", m.tokensPerSec.value());
        num("requestsPerSec", m.requestsPerSec.value());
        num("goodput", m.goodput.value());
        count("sloViolations", m.sloViolations);
        count("cancelledRequests", m.cancelledRequests);
        count("wastedTokens", m.wastedTokens);
        summary("ttft", m.ttft);
        summary("tpot", m.tpot);
        summary("latency", m.latency);
        summary("queueing", m.queueing);
        summary("preemptions", m.preemptions);
    }

    void
    serving(const ServingReport &r)
    {
        count("completed.size", r.completed.size());
        count("completedRequests", r.completedRequests);
        count("cancelledRequests", r.cancelledRequests);
        count("wastedTokens", r.wastedTokens);
        metrics(r.metrics);
        num("makespan", r.makespan.value());
        count("iterations", r.iterations);
        count("generatedTokens", r.generatedTokens);
        count("prefillChunks", r.prefillChunks);
        count("preemptions", r.preemptions);
        count("recomputedTokens", r.recomputedTokens);
        num("peakMemory", r.peakMemory.value());
        num("memoryBudget", r.memoryBudget.value());
        count("peakBatch", static_cast<uint64_t>(r.peakBatch));
        count("totalBlocks", r.totalBlocks.value());
        num("peakBlockUtil", r.peakBlockUtil);
        num("avgBlockUtil", r.avgBlockUtil);
        line("policy=" + policyName(r.policy));
        line("mode=" + executionModeName(r.executionMode));
    }

    void
    fleet(const FleetReport &r)
    {
        line("router=" + routerName(r.router));
        for (size_t i = 0; i < r.replicas.size(); ++i) {
            line("replica " + std::to_string(i));
            serving(r.replicas[i]);
        }
        count("assignments", r.assignments.size());
        count("completed", r.completed.size());
        line("fleet");
        metrics(r.metrics);
        num("makespan", r.makespan.value());
        for (uint64_t v : r.load.requestsPerReplica)
            count("load.requests", v);
        for (uint64_t v : r.load.tokensPerReplica)
            count("load.tokens", v);
        num("load.requestImbalance", r.load.requestImbalance);
        num("load.tokenImbalance", r.load.tokenImbalance);
        count("transfer.transfers", r.transfer.transfers);
        num("transfer.totalBytes", r.transfer.totalBytes.value());
        const ControlPlaneReport &cp = r.controlPlane;
        count("cp.enabled", cp.enabled ? 1 : 0);
        for (const ScaleEvent &e : cp.trajectory) {
            num("cp.scale.time", e.time.value());
            count("cp.scale.provisioned", e.provisioned);
        }
        num("cp.replicaSeconds", cp.replicaSeconds.value());
        for (const WarmupSpan &w : cp.warmups) {
            count("cp.warmup.replica", w.replica);
            num("cp.warmup.start", w.start.value());
            num("cp.warmup.ready", w.ready.value());
        }
        count("cp.cancelledRequests", cp.cancelledRequests);
        count("cp.wastedTokens", cp.wastedTokens);
    }

    std::string text;
};

std::string
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

// --------------------------------------------------------- records

/// Flat JSON object builder for the stdout record.
class JsonObj
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        raw(key, buf);
    }
    void count(const std::string &key, uint64_t v)
    {
        raw(key, std::to_string(v));
    }
    void
    str(const std::string &key, const std::string &v)
    {
        std::string esc;
        for (char c : v) {
            if (c == '"' || c == '\\')
                esc += '\\';
            esc += c;
        }
        raw(key, "\"" + esc + "\"");
    }
    void
    raw(const std::string &key, const std::string &v)
    {
        body += (body.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    }
    std::string render() const { return "{" + body + "}"; }

  private:
    std::string body;
};

struct Options
{
    std::string workload;
    std::vector<std::string> scenarios; ///< design_sweep takes several
    std::string spansPath;  ///< non-empty: spans on, log written here
    std::string reportPath; ///< non-empty: canonical report written here
    bool noObs = false;     ///< strip the scenario's trace/timeline
    bool sumOutputs = false;
};

struct Rep
{
    double setup = 0.0;
    double simulate = 0.0;
    double report = 0.0;
    uint64_t retired = 0;     ///< simulated requests retired
    uint64_t points = 0;      ///< design / scenario points costed
    Canon canon;
    JsonObj facts;            ///< inputs to the output checks
    std::map<std::string, double> layer; ///< per-layer metrics
    std::vector<Scenario> scenarios; ///< kept for the probes
    ModelConfig probeModel;   ///< model the step-cost probe costs
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
writeFile(const std::string &path, const std::string &body)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw ConfigError("cannot open " + path);
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !ok)
        throw ConfigError("short write to " + path);
}

double
ratio(uint64_t num, uint64_t den)
{
    return static_cast<double>(num) /
           static_cast<double>(std::max<uint64_t>(den, 1));
}

/// Parse and validate the scenarios (the config layer's whole job) and
/// check they have the kind the workload drives. Returns the first.
const Scenario &
loadScenarios(const Options &o, SpanLog *spans, ScenarioKind kind,
              ScenarioKind altKind, Rep &rep)
{
    const auto t0 = Clock::now();
    {
        SpanScope s(spans, "config.load");
        for (const std::string &path : o.scenarios)
            rep.scenarios.push_back(loadScenarioFile(path));
    }
    rep.layer["config.load_s"] = secondsSince(t0);
    for (const Scenario &sc : rep.scenarios)
        if (sc.kind != kind && sc.kind != altKind)
            throw ConfigError("workload " + o.workload + " cannot run a " +
                              scenarioKindName(sc.kind) + " scenario");
    if (kind != ScenarioKind::Throughput && rep.scenarios.size() != 1)
        throw ConfigError("workload " + o.workload +
                          " takes exactly one scenario");
    return rep.scenarios.front();
}

/// Engine counters summed over @p reports: check facts, retired count
/// and the serving-layer metrics.
void
foldServingReports(const std::vector<ServingReport> &reports, Rep &rep)
{
    uint64_t completed = 0, cancelled = 0, delivered = 0, wasted = 0,
             iterations = 0, preempt = 0, recomputed = 0;
    int peakBatch = 0;
    double utilSum = 0.0;
    for (const ServingReport &r : reports) {
        completed += r.completedRequests;
        cancelled += r.cancelledRequests;
        delivered += r.generatedTokens;
        wasted += r.wastedTokens;
        iterations += r.iterations;
        preempt += r.preemptions;
        recomputed += r.recomputedTokens;
        peakBatch = std::max(peakBatch, r.peakBatch);
        utilSum += r.avgBlockUtil;
    }
    rep.retired = completed + cancelled;
    rep.facts.count("completed", completed);
    rep.facts.count("cancelled", cancelled);
    rep.facts.count("delivered", delivered);
    rep.facts.count("wasted", wasted);
    auto &L = rep.layer;
    L["serving.iterations"] = static_cast<double>(iterations);
    L["serving.iters_per_req"] = ratio(iterations, rep.retired);
    L["serving.preemptions"] = static_cast<double>(preempt);
    L["serving.recomputed_tokens"] = static_cast<double>(recomputed);
    L["serving.cancelled"] = static_cast<double>(cancelled);
    L["serving.wasted_tokens"] = static_cast<double>(wasted);
    L["serving.peak_batch"] = peakBatch;
    L["serving.avg_block_util"] =
        utilSum / static_cast<double>(std::max<size_t>(reports.size(), 1));
    L["serving.useful_token_frac"] =
        ratio(delivered, delivered + recomputed + wasted);
}

// ------------------------------------------------------- workloads

/// replay / control: one colocated fleet case, streamed.
void
runFleetWorkload(const Options &o, SpanLog *spans, Rep &rep)
{
    const auto t0 = Clock::now();
    const auto &fs = std::get<FleetScenario>(
        loadScenarios(o, spans, ScenarioKind::Fleet,
                      ScenarioKind::ControlPlane, rep)
            .spec);
    if (fs.cases.size() != 1 || !fs.routers.empty())
        throw ConfigError("workload " + o.workload +
                          " needs exactly one fleet case");
    const FleetCase &fc = fs.cases[0];
    Fleet fleet(fs.model, fc.fleet);
    StreamingMetrics stream(fc.fleet.slo);
    std::unique_ptr<ArrivalSource> src = openArrivalSource(fs.trace);
    rep.setup = secondsSince(t0);

    const auto t1 = Clock::now();
    FleetReport fr;
    TimedArrivals timed(*src);
    {
        SpanScope s(spans, "cluster.run");
        fr = spans ? fleet.runStreamed(timed, stream)
                   : fleet.runStreamed(*src, stream);
        if (spans)
            spans->aggregate("serving.arrivals", s.index(),
                             timed.seconds, timed.calls);
    }
    rep.simulate = secondsSince(t1);

    const auto t2 = Clock::now();
    rep.canon.fleet(fr);
    rep.report = secondsSince(t2);

    rep.points = 1;
    rep.probeModel = fs.model;
    foldServingReports(fr.replicas, rep);
    if (o.sumOutputs) {
        // The generated trace, pulled again from a fresh source outside
        // the timed phases: what the fleet was asked to serve.
        std::unique_ptr<ArrivalSource> again = openArrivalSource(fs.trace);
        Request r;
        uint64_t generated = 0, sumOutputs = 0;
        while (again->next(r)) {
            ++generated;
            sumOutputs += r.outputLen;
        }
        rep.facts.count("generated", generated);
        rep.facts.count("sum_outputs", sumOutputs);
    }

    auto &L = rep.layer;
    const double clusterRun = rep.simulate;
    const double iterations = L["serving.iterations"];
    L["serving.arrivals_s"] = timed.seconds;
    L["serving.arrivals_n"] = static_cast<double>(timed.calls);
    L["cluster.run_s"] = clusterRun;
    L["cluster.self_s"] = clusterRun - timed.seconds;
    L["cluster.ns_per_iter"] =
        (clusterRun - timed.seconds) / std::max(iterations, 1.0) * 1e9;
    L["cluster.load_imbalance"] = fr.load.requestImbalance;
    L["cluster.scale_events"] =
        static_cast<double>(fr.controlPlane.trajectory.size());
    L["cluster.replica_s"] =
        fr.controlPlane.enabled
            ? fr.controlPlane.replicaSeconds.value()
            : static_cast<double>(fr.replicas.size()) *
                  fr.makespan.value();
}

/// traced: a serving rate sweep with the tracer and timeline sampler
/// on (unless --no-obs), files written at the end. The per-point loop
/// (labels, pids, tracks) is the one the scenario runner's serving
/// kind runs.
void
runTracedWorkload(const Options &o, SpanLog *spans, Rep &rep)
{
    const auto t0 = Clock::now();
    const Scenario &sc = loadScenarios(o, spans, ScenarioKind::Serving,
                                       ScenarioKind::Serving, rep);
    const auto &ss = std::get<ServingScenario>(sc.spec);
    if (ss.autoModes)
        throw ConfigError("workload traced needs explicit modes");
    const ObservabilityConfig oc =
        o.noObs ? ObservabilityConfig{} : sc.obs;
    std::optional<Tracer> tracer;
    std::optional<TimelineSampler> timeline;
    if (oc.tracing())
        tracer.emplace();
    if (oc.timelining())
        timeline.emplace(oc.timelineInterval);
    rep.setup = secondsSince(t0);

    const auto t1 = Clock::now();
    std::vector<ServingReport> reports;
    int nextPid = 1;
    {
        SpanScope s(spans, "serving.sweep");
        for (SystemKind kind : ss.systems)
            for (SchedulerPolicy policy : ss.policies)
                for (ExecutionMode mode : ss.modes)
                    for (double rate : ss.rates) {
                        const std::string label =
                            systemName(kind) + " " + policyName(policy) +
                            " " + executionModeName(mode) +
                            " rate=" + fmt(rate, 0);
                        EngineObservers eo;
                        if (tracer) {
                            eo.tracer = &*tracer;
                            eo.pid = nextPid++;
                            tracer->processName(eo.pid, label);
                        }
                        if (timeline) {
                            eo.timeline = &*timeline;
                            eo.timelineTrack =
                                timeline->registerTrack(label);
                        }
                        reports.push_back(runServingPoint(
                            ss, kind, policy, mode, rate, eo));
                    }
    }
    rep.simulate = secondsSince(t1);

    const auto t2 = Clock::now();
    {
        SpanScope s(spans, "obs.render");
        if (tracer && !tracer->writeFile(oc.tracePath))
            throw ConfigError("cannot write " + oc.tracePath);
        if (timeline)
            writeFile(oc.timelinePath, timeline->renderCsv());
    }
    rep.layer["obs.render_s"] = secondsSince(t2);
    for (const ServingReport &r : reports)
        rep.canon.serving(r);
    rep.report = secondsSince(t2);

    rep.points = reports.size();
    rep.probeModel = ss.model;
    foldServingReports(reports, rep);
    const uint64_t events = tracer ? tracer->eventCount() : 0;
    rep.facts.count("events", events);
    double traceMb = 0.0;
    for (const std::string &p : {oc.tracePath, oc.timelinePath})
        if (!p.empty())
            traceMb +=
                static_cast<double>(std::filesystem::file_size(p)) / 1e6;
    rep.layer["obs.events"] = static_cast<double>(events);
    rep.layer["obs.trace_mb"] = traceMb;
}

/// design_sweep: cold ServingSimulator costing of every grid point of
/// a throughput scenario (the runner's throughput loop), raw tokens/s
/// per point. Simulated requests are the batch of each point.
void
runSweepWorkload(const Options &o, SpanLog *spans, Rep &rep)
{
    const auto t0 = Clock::now();
    loadScenarios(o, spans, ScenarioKind::Throughput,
                  ScenarioKind::Throughput, rep);
    rep.setup = secondsSince(t0);

    const auto t1 = Clock::now();
    std::vector<double> values;
    {
        SpanScope s(spans, "sim.sweep");
        for (const Scenario &sc : rep.scenarios) {
            const auto &ts = std::get<ThroughputScenario>(sc.spec);
            for (const ThroughputGrid &grid : ts.grids)
                for (const ModelConfig &model : grid.models)
                    for (int batch : grid.batches)
                        for (SystemKind kind : ts.systems) {
                            SystemConfig sys = makeSystem(
                                kind, grid.nGpus, grid.gpu, grid.hbm);
                            sys.executionMode = ts.executionMode;
                            ServingSimulator sim(sys);
                            values.push_back(
                                sim.generationThroughput(model, batch,
                                                         ts.inputLen,
                                                         ts.outputLen)
                                    .value());
                            rep.retired += static_cast<uint64_t>(batch);
                        }
        }
    }
    rep.simulate = secondsSince(t1);

    const auto t2 = Clock::now();
    uint64_t bad = 0;
    for (double v : values) {
        rep.canon.num("tokensPerSec", v);
        if (!std::isfinite(v) || v <= 0.0)
            ++bad;
    }
    rep.report = secondsSince(t2);

    rep.points = values.size();
    rep.probeModel = std::get<ThroughputScenario>(rep.scenarios[0].spec)
                         .grids.at(0)
                         .models.at(0);
    rep.facts.count("bad_points", bad);
}

// ---------------------------------------------------------- probes

/// Drive @p engines through the session API directly: arrivals from
/// @p src split round-robin, advanceTo() then submit() per request,
/// then drain() and finish() each. Accumulates host time per call kind.
struct EngineProbe
{
    double advance = 0.0;
    double submit = 0.0;
    uint64_t advances = 0;
    uint64_t submits = 0;
    uint64_t iterations = 0;

    void
    drive(std::vector<ServingEngine> &engines, ArrivalSource &src)
    {
        for (ServingEngine &e : engines)
            e.begin();
        Request r;
        for (size_t k = 0; src.next(r); ++k) {
            ServingEngine &e = engines[k % engines.size()];
            const auto a = Clock::now();
            e.advanceTo(r.arrival);
            const auto b = Clock::now();
            e.submit(r);
            advance += std::chrono::duration<double>(b - a).count();
            submit += secondsSince(b);
            ++advances;
            ++submits;
        }
        for (ServingEngine &e : engines) {
            const auto a = Clock::now();
            e.drain();
            advance += secondsSince(a);
            ++advances;
            iterations += e.finish().iterations;
        }
    }
};

/// The engine probe on the workload's own arrivals: the fleet case's
/// replica configs (replay, control) or each sweep point (traced).
/// Engines stream their completions so memory stays bounded.
void
runEngineProbe(const Options &o, SpanLog &spans, Rep &rep)
{
    if (o.workload == "design_sweep")
        return; // no engine on its path
    EngineProbe probe;
    SpanScope s(&spans, "serving.engine_probe");
    if (o.workload == "replay" || o.workload == "control") {
        const auto &fs = std::get<FleetScenario>(rep.scenarios[0].spec);
        const FleetConfig &fc = fs.cases[0].fleet;
        std::vector<StreamingMetrics> sinks(fc.replicas.size(),
                                            StreamingMetrics(fc.slo));
        std::vector<ServingEngine> engines;
        engines.reserve(fc.replicas.size());
        for (size_t i = 0; i < fc.replicas.size(); ++i) {
            EngineConfig ec = fc.replicas[i].engine;
            if (!fc.controlPlane.tierByClass.empty())
                ec.tierByClass = fc.controlPlane.tierByClass;
            engines.emplace_back(
                ServingSimulator(makeSystem(fc.replicas[i].kind,
                                            fc.replicas[i].nGpus)),
                fs.model, ec);
            EngineObservers eo;
            eo.stream = &sinks[i];
            eo.streamOnly = true;
            engines.back().attachObservers(eo);
        }
        std::unique_ptr<ArrivalSource> src = openArrivalSource(fs.trace);
        probe.drive(engines, *src);
    } else {
        const auto &ss =
            std::get<ServingScenario>(rep.scenarios[0].spec);
        for (SystemKind kind : ss.systems)
            for (SchedulerPolicy policy : ss.policies)
                for (ExecutionMode mode : ss.modes)
                    for (double rate : ss.rates) {
                        TraceConfig tc = ss.trace;
                        tc.ratePerSec = rate;
                        EngineConfig ec = ss.engine;
                        ec.policy = policy;
                        ec.executionMode = mode;
                        std::vector<ServingEngine> engines;
                        engines.emplace_back(
                            ServingSimulator(makeSystem(kind, ss.nGpus)),
                            ss.model, ec);
                        ArrivalStream src(tc);
                        probe.drive(engines, src);
                    }
    }
    spans.aggregate("serving.engine_advance", s.index(), probe.advance,
                    probe.advances);
    spans.aggregate("serving.engine_submit", s.index(), probe.submit,
                    probe.submits);
    rep.layer["serving.engine_advance_s"] = probe.advance;
    rep.layer["serving.engine_submit_s"] = probe.submit;
    rep.layer["serving.ns_per_iter"] =
        probe.advance /
        static_cast<double>(std::max<uint64_t>(probe.iterations, 1)) * 1e9;
}

/// Cold (fresh object, first call) and warm (repeat call) timings of
/// the step-cost and PIM-kernel layers, medians over fresh instances.
void
runProbes(SpanLog &spans, Rep &rep, uint64_t sweepSteps)
{
    constexpr int kInstances = 32;
    std::vector<double> cold, warm;
    {
        SpanScope s(&spans, "sim.probe");
        for (int i = 0; i < kInstances; ++i) {
            ServingSimulator sim(makeSystem(SystemKind::PIMBA));
            auto a = Clock::now();
            (void)sim.generationStep(rep.probeModel, 64, 2048);
            cold.push_back(secondsSince(a));
            a = Clock::now();
            (void)sim.generationStep(rep.probeModel, 64, 2048);
            warm.push_back(secondsSince(a));
        }
    }
    rep.layer["sim.step_cold_us"] = median(cold) * 1e6;
    rep.layer["sim.step_warm_us"] = median(warm) * 1e6;
    rep.layer["sim.steps"] =
        static_cast<double>(sweepSteps + 2 * kInstances);

    cold.clear();
    warm.clear();
    const StateUpdateShape su{64 * 64, 64, 128};
    const AttentionShape attn{64 * 32, 128, 2048};
    {
        SpanScope s(&spans, "pim.probe");
        for (int i = 0; i < kInstances; ++i) {
            PimComputeModel pim(hbm2eConfig(), pimbaDesign());
            auto a = Clock::now();
            (void)pim.stateUpdate(su);
            (void)pim.attentionScore(attn);
            cold.push_back(secondsSince(a));
            a = Clock::now();
            (void)pim.stateUpdate(su);
            (void)pim.attentionScore(attn);
            warm.push_back(secondsSince(a));
        }
    }
    rep.layer["pim.kernel_cold_us"] = median(cold) * 1e6;
    rep.layer["pim.kernel_warm_us"] = median(warm) * 1e6;
}

/// VmHWM of this process. getrusage's ru_maxrss would also count the
/// parent's image from before exec.
double
peakRssMb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "replay|control|traced|design_sweep --scenario FILE\n"
                 "       [--spans FILE] [--report FILE] [--no-obs] "
                 "[--sum-outputs]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--scenario")
            o.scenarios.push_back(value());
        else if (a == "--spans")
            o.spansPath = value();
        else if (a == "--report")
            o.reportPath = value();
        else if (a == "--no-obs")
            o.noObs = true;
        else if (a == "--sum-outputs")
            o.sumOutputs = true;
        else
            return usage();
    }
    if (o.workload.empty() || o.scenarios.empty())
        return usage();

    std::optional<SpanLog> spanLog;
    if (!o.spansPath.empty())
        spanLog.emplace();
    SpanLog *spans = spanLog ? &*spanLog : nullptr;

    Rep rep;
    double wall = 0.0;
    try {
        const auto t0 = Clock::now();
        {
            SpanScope root(spans, "bench.workload");
            if (o.workload == "replay" || o.workload == "control")
                runFleetWorkload(o, spans, rep);
            else if (o.workload == "traced")
                runTracedWorkload(o, spans, rep);
            else if (o.workload == "design_sweep")
                runSweepWorkload(o, spans, rep);
            else
                return usage();
        }
        wall = secondsSince(t0);
        if (spans) {
            runEngineProbe(o, *spans, rep);
            runProbes(*spans, rep,
                      o.workload == "design_sweep" ? rep.points : 0);
            for (const auto &[layer, self] : spans->layerSelfTimes())
                rep.layer[layer + ".self_s"] = self;
            if (!spans->write(o.spansPath))
                throw ConfigError("cannot write " + o.spansPath);
        }
        if (!o.reportPath.empty())
            writeFile(o.reportPath, rep.canon.text);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }

    JsonObj out;
    out.str("workload", o.workload);
    out.num("wall_s", wall);
    out.num("setup_s", rep.setup);
    out.num("simulate_s", rep.simulate);
    out.num("report_s", rep.report);
    out.num("peak_rss_mb", peakRssMb());
    out.count("retired", rep.retired);
    out.count("points", rep.points);
    out.str("digest", fnv1a(rep.canon.text));
    out.raw("facts", rep.facts.render());
    JsonObj layer;
    for (const auto &[name, v] : rep.layer)
        layer.num(name, v);
    out.raw("layer", layer.render());
    JsonObj build;
    build.str("compiler", PERFBENCH_COMPILER);
    build.str("flags", PERFBENCH_FLAGS);
    build.str("build_type", PERFBENCH_BUILD_TYPE);
    out.raw("build", build.render());
    std::printf("%s\n", out.render().c_str());
    return 0;
}
