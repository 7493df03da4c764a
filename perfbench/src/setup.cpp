#include <stdexcept>

#include "core/networks.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "workloads.hpp"

using namespace mesorasi;

namespace perfbench {

namespace {

/** Weight seed of every engine the benchmark builds. */
constexpr uint64_t kWeightSeed = 1;

const std::vector<Workload> &
workloads()
{
    // Latency limits sit well above each workload's service time, so
    // tail_ms crosses them only when queueing takes over.
    static const std::vector<Workload> all = {
        {"serve_pnpp", core::zoo::pointnetppClassification(),
         core::PipelineKind::Delayed, true, 100.0},
        {"batch_dgcnn", core::zoo::dgcnnClassification(),
         core::PipelineKind::Delayed, false, 150.0},
        {"batch_pnpp_original", core::zoo::pointnetppClassification(),
         core::PipelineKind::Original, false, 50.0},
    };
    return all;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

serve::ServingOptions
serveLayout()
{
    serve::ServingOptions o;
    o.numShards = 2;
    o.threadsPerShard = 2;
    o.maxBatch = 8;
    o.maxWaitUs = 200;
    o.queueCapacity = 256;
    return o;
}

Prepared
prepare(const Workload &w, const geom::PointCloud &warmCloud,
        uint64_t warmSeed)
{
    Prepared p;
    const Clock::time_point t0 = Clock::now();
    p.exec = std::make_unique<core::NetworkExecutor>(w.cfg, kWeightSeed);
    const Clock::time_point t1 = Clock::now();
    p.fresh = std::make_unique<core::plan::CompiledEngine>(
        core::plan::PlanCompiler::compile(*p.exec, w.kind));
    const Clock::time_point t2 = Clock::now();
    const std::vector<uint8_t> bytes =
        core::plan::saveEngineToBytes(*p.fresh);
    const Clock::time_point t3 = Clock::now();
    p.engine = std::make_unique<core::plan::CompiledEngine>(
        core::plan::loadEngineFromBytes(bytes.data(), bytes.size()));
    const Clock::time_point t4 = Clock::now();
    p.ctx = p.engine->makeContext();
    const Status st = p.engine->tryExecute(warmCloud, warmSeed, *p.ctx);
    if (!st.isOk())
        throw std::runtime_error("warm-up execute failed: " +
                                 st.toString());
    const Clock::time_point t5 = Clock::now();
    if (w.served)
        p.server =
            std::make_unique<serve::ServingEngine>(*p.engine, serveLayout());
    const Clock::time_point t6 = Clock::now();

    p.compileMs = msBetween(t1, t2);
    p.loadMs = msBetween(t3, t4);
    p.firstExecuteMs = msBetween(t4, t5);
    p.setupS = msBetween(t0, t6) / 1000.0;
    return p;
}

void
Counts::add(const Counts &o)
{
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
    rejected += o.rejected;
}

std::vector<std::pair<std::string, std::string>>
Counts::fields() const
{
    return {{"attempted", std::to_string(attempted)},
            {"succeeded", std::to_string(succeeded)},
            {"failed", std::to_string(failed)},
            {"rejected", std::to_string(rejected)}};
}

} // namespace perfbench
