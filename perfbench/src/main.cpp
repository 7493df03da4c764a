/**
 * @file
 * Repo benchmark entry point.
 *
 *   perfbench --workload <serve_pnpp|batch_dgcnn|batch_pnpp_original>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <dir>] [--corrupt-gate <served|loaded|oracle>]
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * is the separate traced run that yields the per-layer metrics. Every
 * run passes three bitwise gates first (served == direct execute,
 * artifact-loaded == fresh compile, compiled engine ==
 * NetworkExecutor::run); a failed gate exits 1 without a result line.
 * --corrupt-gate flips one bit of one gate's reference, so the
 * self-test can show the gate trips. The last stdout line is the
 * result; the lines before it are JSON records (host fingerprint,
 * per-phase counts, tail percentiles, sanity checks).
 */
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/plan/plan_compiler.hpp"
#include "hwsim/soc.hpp"
#include "workloads.hpp"

using namespace mesorasi;
using namespace perfbench;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 9;
/** Distinct input clouds per run (requests cycle through them). */
constexpr int32_t kClouds = 32;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    Corrupt corrupt = Corrupt::None;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::atof(val.c_str());
            haveSeconds = a.seconds > 0.0;
        } else if (flag == "--trace") {
            a.trace = val == "1";
            haveTrace = val == "0" || val == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else if (flag == "--corrupt-gate") {
            a.corrupt = val == "served"   ? Corrupt::Served
                        : val == "loaded" ? Corrupt::Loaded
                        : val == "oracle" ? Corrupt::Oracle
                                          : Corrupt::None;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds &&
           haveTrace;
}

/** Step names with a per-layer metric of their own (the compiled steps
 *  of the three workloads' engines); any other step's time goes to
 *  step.other_ms. */
const std::vector<std::string> &
namedSteps()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "net.input",  "sa1.draw",   "sa2.draw",    "sa1.sample",
            "sa1.search", "sa1.feature", "sa1.aggregate+sub", "sa1.coords",
            "sa2.sample", "sa2.search", "sa2.feature", "sa2.aggregate+sub",
            "sa3.feature", "sa3.reduce", "head.fc",
            "sa1.aggregate", "sa1.feature.mlp", "sa1.feature.reduce",
            "sa2.aggregate", "sa2.feature.mlp", "sa2.feature.reduce",
            "head.concat", "head.global", "head.pool"};
        for (const char *m : {"ec1", "ec2", "ec3", "ec4"})
            for (const char *s : {".sample", ".search", ".feature.p",
                                  ".feature.q+bias", ".aggregate+add"})
                n.push_back(std::string(m) + s);
        return n;
    }();
    return names;
}

/** step.<name>_ms with the name mapped onto the metric charset. */
std::string
stepMetric(const std::string &step)
{
    std::string m = "step.";
    for (char c : step)
        m += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
              c == '_' || c == '-')
                 ? c
                 : '_';
    return m + "_ms";
}

const char *
stageKey(core::StageKind k)
{
    switch (k) {
      case core::StageKind::Sample:
        return "sample";
      case core::StageKind::Search:
        return "search";
      case core::StageKind::Aggregate:
        return "aggregate";
      case core::StageKind::Feature:
        return "feature";
      case core::StageKind::Epilogue:
        break;
    }
    return "epilogue";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct SetupSummary
{
    double setupS, compileMs, loadMs, firstExecuteMs;
};

/** kSetupReps full set-ups; the last one's engine is kept. */
Prepared
setUp(const Workload &w, const std::vector<geom::PointCloud> &clouds,
      uint64_t seed, SetupSummary &sum)
{
    std::vector<double> s, c, l, f;
    Prepared p;
    for (int r = 0; r < kSetupReps; ++r) {
        // The previous server and context reference its engine: stop
        // them before the engine goes.
        p.server.reset();
        p.ctx.reset();
        p = prepare(w, clouds[0], requestSeed(seed, 1u << 30));
        s.push_back(p.setupS);
        c.push_back(p.compileMs);
        l.push_back(p.loadMs);
        f.push_back(p.firstExecuteMs);
    }
    sum = {median(s), median(c), median(l), median(f)};
    return p;
}

/** Gate: the artifact-loaded engine equals a fresh compile. */
void
gateLoadedEqualsFresh(const Prepared &p,
                      const std::vector<geom::PointCloud> &clouds,
                      uint64_t seed, bool corrupt)
{
    auto freshCtx = p.fresh->makeContext();
    for (uint64_t j = 0; j < 3; ++j) {
        const geom::PointCloud &cloud = clouds[(5 * j + 1) % clouds.size()];
        const uint64_t s = requestSeed(seed, (1u << 30) + 1 + j);
        const tensor::Tensor &want = p.fresh->execute(cloud, s, *freshCtx);
        const tensor::Tensor &got = p.engine->execute(cloud, s, *p.ctx);
        requireBitwise(got, want, corrupt && j == 0,
                       "artifact-loaded engine vs fresh compile");
    }
}

/** Gate: compiled-engine outputs equal NetworkExecutor::run with the
 *  same seed. Returns the first oracle run (hwsim input). */
core::RunResult
gateEngineEqualsOracle(const Workload &w, const Prepared &p,
                       const std::vector<geom::PointCloud> &clouds,
                       const std::vector<OutputSample> &samples,
                       bool corrupt)
{
    core::RunResult first;
    for (size_t j = 0; j < samples.size(); ++j) {
        core::RunResult run =
            p.exec->run(clouds[samples[j].cloud], w.kind, samples[j].seed);
        requireBitwise(samples[j].logits, run.logits, corrupt && j == 0,
                       "compiled engine vs NetworkExecutor::run");
        if (j == 0)
            first = std::move(run);
    }
    return first;
}

/** Gate: served logits equal a direct execute on a fresh context. */
void
gateServedEqualsDirect(const Prepared &p,
                       const std::vector<geom::PointCloud> &clouds,
                       const std::vector<OutputSample> &served, bool corrupt)
{
    if (served.empty())
        throw GateFailure("served == direct: no served sample");
    auto ctx = p.engine->makeContext();
    for (size_t j = 0; j < served.size(); ++j) {
        const tensor::Tensor &direct =
            p.engine->execute(clouds[served[j].cloud], served[j].seed, *ctx);
        requireBitwise(served[j].logits, direct, corrupt && j == 0,
                       "served vs direct execute");
    }
}

/** Direct executes for the oracle gate on the serve workload. */
std::vector<OutputSample>
directSamples(const Prepared &p, const std::vector<geom::PointCloud> &clouds,
              uint64_t seed)
{
    std::vector<OutputSample> out;
    for (uint64_t j = 0; j < 2; ++j) {
        const size_t c = (3 * j + 2) % clouds.size();
        const uint64_t s = requestSeed(seed, (1u << 30) + 16 + j);
        out.push_back({c, s, p.engine->execute(clouds[c], s, *p.ctx)});
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
tailFields(const Tail &t)
{
    return {{"tail_ms", jsonNum(t.valueMs)},
            {"tail_percentile", jsonNum(kTailPercentile)},
            {"tail_samples", std::to_string(t.samples)},
            {"tail_beyond", std::to_string(t.beyond)}};
}

template <typename... F>
std::vector<std::pair<std::string, std::string>>
concat(F... parts)
{
    std::vector<std::pair<std::string, std::string>> out;
    (out.insert(out.end(), parts.begin(), parts.end()), ...);
    return out;
}

void
recordOpenLoop(const std::string &phase, const OpenLoopResult &r)
{
    printRecord("phase",
                concat(std::vector<std::pair<std::string, std::string>>{
                           {"phase", jsonStr(phase)},
                           {"nominal_qps", jsonNum(r.nominalQps)},
                           {"offered_qps", jsonNum(r.offeredQps)},
                           {"p50_ms", jsonNum(median(r.latencyMs))},
                           {"drain_ms", jsonNum(r.drainMs)},
                           {"meets_slo", r.meetsSlo ? "true" : "false"}},
                       r.counts.fields(), tailFields(r.tail)));
}

/** The end-to-end metrics of a serve run (tracing off). */
void
serveEndToEnd(const ServeResult &r, Metrics &m)
{
    m.set("p50_ms", median(r.light.latencyMs), "ms");
    m.set("tail_ms", r.light.tail.valueMs, "ms");
    m.set("throughput_per_s",
          static_cast<double>(r.closed.counts.succeeded) / r.closed.wallS,
          "1/s");
    m.set("max_qps_slo", r.maxQpsSlo, "1/s");
    m.set("cpu_ms_per_req",
          1000.0 * r.closed.cpuS /
              static_cast<double>(std::max<uint64_t>(
                  1, r.closed.counts.succeeded)),
          "ms");
}

void
recordServe(const ServeResult &r)
{
    printRecord("phase", concat(std::vector<std::pair<std::string,
                                                      std::string>>{
                                    {"phase", "\"warmup\""}},
                                r.warmup.fields()));
    recordOpenLoop("a_light", r.light);
    for (size_t k = 0; k < r.ladder.size(); ++k)
        recordOpenLoop("b_ladder_" + std::to_string(k), r.ladder[k]);
    printRecord("phase",
                concat(std::vector<std::pair<std::string, std::string>>{
                           {"phase", "\"c_closed\""},
                           {"clients", std::to_string(r.closed.clients)},
                           {"wall_s", jsonNum(r.closed.wallS)},
                           {"p50_ms", jsonNum(median(r.closed.latencyMs))}},
                       r.closed.counts.fields(),
                       tailFields(tailOf(r.closed.latencyMs))));
}

/** Every per-layer metric: the engine profile, plus the serve layer
 *  and load generator on serve_pnpp (zero elsewhere). */
void
perLayer(const Workload &w, const Prepared &p, const SetupSummary &setup,
         const Profile &prof, const ServeResult *serve,
         const core::RunResult &oracleRun, Metrics &m)
{
    // Load generator and serve layer.
    std::vector<double> lag, submitUs;
    double ticketP50 = 0.0;
    if (serve) {
        std::vector<const OpenLoopResult *> open{&serve->light};
        for (const OpenLoopResult &r : serve->ladder)
            open.push_back(&r);
        for (const OpenLoopResult *r : open) {
            lag.insert(lag.end(), r->lagMs.begin(), r->lagMs.end());
            submitUs.insert(submitUs.end(), r->submitUs.begin(),
                            r->submitUs.end());
        }
        ticketP50 = median(serve->light.ticketMs);
    }
    m.set("loadgen.lag_p50_ms", median(lag), "ms");
    m.set("loadgen.lag_max_ms",
          lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()),
          "ms");
    m.set("serve.submit_us", median(submitUs), "us");
    m.set("serve.ticket_p50_ms", ticketP50, "ms");
    m.set("serve.wait_est_ms", serve ? ticketP50 - prof.executeMs : 0.0,
          "ms");
    m.set("serve.mean_batch", serve ? serve->stats.meanBatchSize() : 0.0,
          "count");
    m.set("serve.batches",
          serve ? static_cast<double>(serve->stats.batches) : 0.0, "count");
    m.set("serve.rejected",
          serve ? static_cast<double>(serve->stats.rejected) : 0.0, "count");
    m.set("serve.failed",
          serve ? static_cast<double>(serve->stats.failed) : 0.0, "count");

    // Plan.
    m.set("plan.compile_ms", setup.compileMs, "ms");
    m.set("plan.load_ms", setup.loadMs, "ms");
    m.set("plan.first_execute_ms", setup.firstExecuteMs, "ms");
    m.set("plan.execute_ms", prof.executeMs, "ms");
    m.set("plan.steps", static_cast<double>(p.engine->steps().size()),
          "count");
    m.set("plan.arena_kib",
          static_cast<double>(p.engine->stats().arenaFloats) * 4.0 / 1024.0,
          "KiB");

    // Stages (N/A/F split) and steps.
    std::map<std::string, double> stage;
    for (const char *k :
         {"sample", "search", "aggregate", "feature", "epilogue"})
        stage[k] = 0.0;
    std::map<std::string, double> steps;
    for (const std::string &n : namedSteps())
        steps[stepMetric(n)] = 0.0;
    double other = 0.0, total = 0.0;
    for (size_t i = 0; i < prof.stepMs.size(); ++i) {
        stage[stageKey(prof.stepKinds[i])] += prof.stepMs[i];
        total += prof.stepMs[i];
        auto it = steps.find(stepMetric(prof.stepNames[i]));
        if (it != steps.end())
            it->second += prof.stepMs[i];
        else
            other += prof.stepMs[i];
    }
    for (const char *k :
         {"sample", "search", "aggregate", "feature", "epilogue"}) {
        m.set(std::string("stage.") + k + "_ms", stage[k], "ms");
        m.set(std::string("stage.") + k + "_share",
              100.0 * ratio(stage[k], total), "%");
    }
    for (const std::string &n : namedSteps())
        m.set(stepMetric(n), steps[stepMetric(n)], "ms");
    m.set("step.other_ms", other, "ms");

    // Computed (not measured) rates: analytic work / measured stage time.
    const core::NetworkTrace trace =
        p.exec->analyticTrace(w.kind, w.cfg.numInputPoints);
    double aggBytes = 0.0, distances = 0.0;
    for (const core::ModuleTrace &mod : trace.modules) {
        aggBytes += static_cast<double>(mod.bytes(core::Phase::Aggregation));
        for (const core::OpTrace &op : mod.ops)
            if (op.kind == core::OpKind::NeighborSearch)
                distances += static_cast<double>(op.queries) *
                             static_cast<double>(op.candidates);
    }
    const double flops =
        2.0 * static_cast<double>(trace.macs(core::Phase::Feature));
    m.set("nn.gflops", ratio(flops, stage["feature"] * 1e6), "GFLOP/s");
    m.set("agg.gbps", ratio(aggBytes, stage["aggregate"] * 1e6), "GB/s");
    m.set("neighbor.gdist_per_s", ratio(distances, stage["search"] * 1e6),
          "G/s");

    // hwsim's predicted split for the same network and pipeline.
    const hwsim::Soc soc(hwsim::SocConfig::defaultTx2());
    const hwsim::SocReport pred =
        soc.simulate(oracleRun, hwsim::Mapping::gpuOnly());
    const double predTotal = pred.phases.serialTotal();
    m.set("hwsim.pred_share.search",
          100.0 * ratio(pred.phases.searchMs, predTotal), "%");
    m.set("hwsim.pred_share.aggregate",
          100.0 * ratio(pred.phases.aggregationMs, predTotal), "%");
    m.set("hwsim.pred_share.feature",
          100.0 * ratio(pred.phases.featureMs, predTotal), "%");
    m.set("hwsim.pred_share.other",
          100.0 * ratio(pred.phases.otherMs, predTotal), "%");

    m.set("trace.overhead_pct",
          100.0 * ratio(prof.tracedExecuteMs - prof.executeMs,
                        prof.executeMs),
          "%");

    // Sanity check of the workload choice: the stage each workload was
    // chosen to stress is more than half of execute time.
    const bool searchBound = w.name == "batch_dgcnn";
    const char *dominant = searchBound ? "search" : "feature";
    printRecord("sanity",
                {{"workload", jsonStr(w.name)},
                 {"expected_dominant_stage", jsonStr(dominant)},
                 {"share_pct", jsonNum(100.0 * ratio(stage[dominant], total))},
                 {"holds", stage[dominant] > 0.5 * total ? "true" : "false"},
                 {"measured_search_pct",
                  jsonNum(100.0 * ratio(stage["search"], total))},
                 {"measured_aggregate_pct",
                  jsonNum(100.0 * ratio(stage["aggregate"], total))},
                 {"measured_feature_pct",
                  jsonNum(100.0 * ratio(stage["feature"], total))},
                 {"hwsim_search_pct",
                  jsonNum(100.0 * ratio(pred.phases.searchMs, predTotal))},
                 {"hwsim_aggregate_pct",
                  jsonNum(100.0 *
                          ratio(pred.phases.aggregationMs, predTotal))},
                 {"hwsim_feature_pct",
                  jsonNum(100.0 * ratio(pred.phases.featureMs, predTotal))},
                 {"profiled_executes", std::to_string(prof.executes)}});
}

/** batch_pnpp_original's delayed-aggregation speedup on this host: the
 *  same weights compiled under both pipelines, executes alternated. */
void
recordDelayedSpeedup(const Prepared &p,
                     const std::vector<geom::PointCloud> &clouds,
                     uint64_t seed, double seconds)
{
    const core::plan::CompiledEngine delayed =
        core::plan::PlanCompiler::compile(*p.exec,
                                          core::PipelineKind::Delayed);
    auto dctx = delayed.makeContext();
    std::vector<double> orig, del;
    const Clock::time_point tEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (uint64_t i = 0; Clock::now() < tEnd || i < 4; ++i) {
        const geom::PointCloud &cloud = clouds[i % clouds.size()];
        const uint64_t s = requestSeed(seed ^ 0xde1aull, i);
        Clock::time_point a = Clock::now();
        p.engine->execute(cloud, s, *p.ctx);
        Clock::time_point b = Clock::now();
        delayed.execute(cloud, s, *dctx);
        Clock::time_point c = Clock::now();
        orig.push_back(msBetween(a, b));
        del.push_back(msBetween(b, c));
    }
    printRecord("delayed_speedup",
                {{"network", jsonStr(p.exec->config().name)},
                 {"original_execute_ms", jsonNum(median(orig))},
                 {"delayed_execute_ms", jsonNum(median(del))},
                 {"speedup", jsonNum(median(orig) / median(del))},
                 {"paper_speedup",
                  jsonStr("1.6x average, GPU-only delayed aggregation "
                          "(Fig. 17); 1.6x-3.6x with the AU")}});
}

int
run(const Args &a)
{
    const Workload *w = findWorkload(a.workload);
    if (!w) {
        std::cerr << "unknown workload " << a.workload << "\n";
        return 2;
    }
    const serve::ServingOptions layout = serveLayout();
    printRecord("host",
                concat(hostFingerprint(),
                       std::vector<std::pair<std::string, std::string>>{
                           {"workload", jsonStr(w->name)},
                           {"seed", std::to_string(a.seed)},
                           {"seconds", jsonNum(a.seconds)},
                           {"trace", a.trace ? "1" : "0"},
                           {"serve_shards",
                            std::to_string(layout.numShards)},
                           {"serve_workers_per_shard",
                            std::to_string(layout.threadsPerShard)},
                           {"serve_max_batch",
                            std::to_string(layout.maxBatch)},
                           {"serve_max_wait_us",
                            std::to_string(layout.maxWaitUs)},
                           {"serve_queue_capacity",
                            std::to_string(layout.queueCapacity)},
                           {"slo_ms", jsonNum(w->sloMs)}}));

    const std::vector<geom::PointCloud> clouds =
        makeClouds(w->cfg, a.seed, kClouds);
    SetupSummary setup{};
    Prepared p = setUp(*w, clouds, a.seed, setup);
    printRecord("setup", {{"reps", std::to_string(kSetupReps)},
                          {"setup_s", jsonNum(setup.setupS)},
                          {"compile_ms", jsonNum(setup.compileMs)},
                          {"load_ms", jsonNum(setup.loadMs)},
                          {"first_execute_ms",
                           jsonNum(setup.firstExecuteMs)}});
    gateLoadedEqualsFresh(p, clouds, a.seed, a.corrupt == Corrupt::Loaded);

    const Clock::time_point origin = Clock::now();
    SpanLog spans(a.trace ? 100000 : 0);
    SpanLog *spanLog = a.trace ? &spans : nullptr;
    Metrics m;
    Counts total;
    std::vector<OutputSample> oracleSamples;
    ServeResult serveResult;
    if (!a.trace)
        m.set("setup_s", setup.setupS, "s");
    if (w->served) {
        serveResult = runServe(*w, p, clouds, a.seed, a.seconds, spanLog);
        recordServe(serveResult);
        gateServedEqualsDirect(p, clouds, serveResult.served,
                               a.corrupt == Corrupt::Served);
        total.add(serveResult.warmup);
        total.add(serveResult.light.counts);
        for (const OpenLoopResult &r : serveResult.ladder)
            total.add(r.counts);
        total.add(serveResult.closed.counts);
        oracleSamples = directSamples(p, clouds, a.seed);
        if (!a.trace)
            serveEndToEnd(serveResult, m);
    } else if (!a.trace) {
        const BatchResult r = runBatch(p, clouds, a.seed, a.seconds);
        const Tail tail = tailOf(r.latencyMs);
        printRecord("phase",
                    concat(std::vector<std::pair<std::string, std::string>>{
                               {"phase", "\"closed_one_client\""},
                               {"wall_s", jsonNum(r.wallS)}},
                           r.counts.fields(), tailFields(tail)));
        total.add(r.counts);
        oracleSamples = r.samples;
        const double n = static_cast<double>(
            std::max<uint64_t>(1, r.counts.succeeded));
        const double withinSlo = static_cast<double>(
            std::count_if(r.latencyMs.begin(), r.latencyMs.end(),
                          [&](double v) { return v <= w->sloMs; }));
        m.set("p50_ms", median(r.latencyMs), "ms");
        m.set("tail_ms", tail.valueMs, "ms");
        m.set("throughput_per_s", n / r.wallS, "1/s");
        m.set("max_qps_slo", withinSlo / r.wallS, "1/s");
        m.set("cpu_ms_per_req", 1000.0 * r.cpuS / n, "ms");
    }

    if (a.trace) {
        const double profileS = a.seconds * (w->served ? 0.25 : 0.5);
        const Profile prof =
            profileSteps(p, clouds, a.seed, profileS, spanLog);
        total.attempted += 2 * prof.executes;
        total.succeeded += 2 * prof.executes;
        if (oracleSamples.empty())
            oracleSamples = directSamples(p, clouds, a.seed);
        const core::RunResult oracleRun = gateEngineEqualsOracle(
            *w, p, clouds, oracleSamples, a.corrupt == Corrupt::Oracle);
        perLayer(*w, p, setup, prof, w->served ? &serveResult : nullptr,
                 oracleRun, m);
        if (w->kind == core::PipelineKind::Original)
            recordDelayedSpeedup(p, clouds, a.seed,
                                 std::max(1.0, 0.1 * a.seconds));
        if (!a.traceOut.empty()) {
            const std::string path = a.traceOut + "/" + w->name + ".json";
            if (!spans.writeChromeTrace(path, origin, a.seed))
                throw std::runtime_error("cannot write " + path);
            printRecord("trace", {{"path", jsonStr(path)}});
        }
    } else {
        gateEngineEqualsOracle(*w, p, clouds, oracleSamples,
                               a.corrupt == Corrupt::Oracle);
    }
    printRecord("gates", {{"served_eq_direct",
                           w->served ? "\"pass\"" : "\"n/a\""},
                          {"loaded_eq_fresh", "\"pass\""},
                          {"engine_eq_network_executor", "\"pass\""}});
    printRecord("counts", total.fields());
    std::cout << m.resultLine(total.attempted,
                              total.failed + total.rejected)
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <dir>] "
                     "[--corrupt-gate <served|loaded|oracle>]\n";
        return 2;
    }
    try {
        return run(a);
    } catch (const GateFailure &e) {
        std::cerr << "correctness gate failed: " << e.what() << "\n";
    } catch (const std::exception &e) {
        std::cerr << "benchmark failed: " << e.what() << "\n";
    }
    return 1;
}
