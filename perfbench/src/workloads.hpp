/**
 * @file
 * The benchmark's workloads and the layers they drive, all through
 * public APIs: NetworkExecutor + PlanCompiler::compile, the engine
 * artifact round trip, CompiledEngine::execute, and
 * serve::ServingEngine::submit / Ticket / stats().
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/plan/engine.hpp"
#include "serve/serving_engine.hpp"
#include "util.hpp"

namespace perfbench {

/** One benchmark workload: a network, a pipeline and how it is driven. */
struct Workload
{
    std::string name;
    mesorasi::core::NetworkConfig cfg;
    mesorasi::core::PipelineKind kind;
    bool served = false; ///< driven through ServingEngine (else batch)
    double sloMs = 0.0;  ///< latency limit on tail_ms
};

/** Look up a workload by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** The fixed serving layout of serve_pnpp (the serve_loadgen layout). */
mesorasi::serve::ServingOptions serveLayout();

/** A set-up engine: weights, fresh compile, artifact-loaded engine (the
 *  one every timed call uses) with its warm context, and the server. */
struct Prepared
{
    std::unique_ptr<mesorasi::core::NetworkExecutor> exec;
    std::unique_ptr<mesorasi::core::plan::CompiledEngine> fresh;
    std::unique_ptr<mesorasi::core::plan::CompiledEngine> engine;
    std::unique_ptr<mesorasi::core::plan::ExecutionContext> ctx;
    std::unique_ptr<mesorasi::serve::ServingEngine> server;
    double compileMs = 0.0;
    double loadMs = 0.0;
    double firstExecuteMs = 0.0;
    double setupS = 0.0;
};

/** Build weights, compile, save + load the artifact, warm one context
 *  on @p warmCloud, and start the server when @p w is served. */
Prepared prepare(const Workload &w,
                 const mesorasi::geom::PointCloud &warmCloud,
                 uint64_t warmSeed);

/** Request counts of one phase. Failed = completed with an error status;
 *  rejected = refused at admission (queue full). The result line counts
 *  both as failed. */
struct Counts
{
    uint64_t attempted = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;

    void add(const Counts &o);
    std::vector<std::pair<std::string, std::string>> fields() const;
};

/** One logits sample kept for a bitwise gate. */
struct OutputSample
{
    size_t cloud = 0;
    uint64_t seed = 0;
    mesorasi::tensor::Tensor logits;
};

// --- batch: one caller, execute back to back on one warm context ------

struct BatchResult
{
    Counts counts;
    std::vector<double> latencyMs;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<OutputSample> samples;
};

BatchResult runBatch(const Prepared &p,
                     const std::vector<mesorasi::geom::PointCloud> &clouds,
                     uint64_t seed, double seconds);

// --- serve: open-loop light rate, open-loop ladder, closed loop --------

struct OpenLoopResult
{
    double nominalQps = 0.0;
    double offeredQps = 0.0; ///< arrivals / arrival window
    Counts counts;
    std::vector<double> latencyMs; ///< completion - due time
    std::vector<double> lagMs;     ///< submit start - due time
    std::vector<double> submitUs;  ///< submit() call duration
    std::vector<double> ticketMs;  ///< Ticket::latencyMs
    double drainMs = 0.0; ///< last completion - end of arrival window
    Tail tail;
    bool meetsSlo = false;
};

struct ClosedLoopResult
{
    int32_t clients = 0;
    Counts counts;
    std::vector<double> latencyMs; ///< Ticket::latencyMs
    double wallS = 0.0;
    double cpuS = 0.0;
};

struct ServeResult
{
    OpenLoopResult light;
    std::vector<OpenLoopResult> ladder;
    double maxQpsSlo = 0.0;
    ClosedLoopResult closed;
    Counts warmup;
    mesorasi::serve::ServingStats stats;
    std::vector<OutputSample> served; ///< gate samples
};

/** Run the three serve phases against @p p.server. Spans go to
 *  @p spans when non-null. */
ServeResult runServe(const Workload &w, const Prepared &p,
                     const std::vector<mesorasi::geom::PointCloud> &clouds,
                     uint64_t seed, double seconds, SpanLog *spans);

// --- per-layer profile: step spans from execute(..., afterStep) --------

struct Profile
{
    std::vector<std::string> stepNames;
    std::vector<mesorasi::core::StageKind> stepKinds;
    std::vector<double> stepMs; ///< median per step, traced executes
    double executeMs = 0.0;       ///< median untraced execute
    double tracedExecuteMs = 0.0; ///< median traced execute
    size_t executes = 0;
};

/** Alternate untraced and traced executes of the loaded engine on one
 *  context for @p seconds. */
Profile profileSteps(const Prepared &p,
                     const std::vector<mesorasi::geom::PointCloud> &clouds,
                     uint64_t seed, double seconds, SpanLog *spans);

} // namespace perfbench
