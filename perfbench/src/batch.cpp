#include <functional>

#include "workloads.hpp"

using namespace mesorasi;

namespace perfbench {

namespace {

/** Outputs kept per run for the NetworkExecutor::run oracle gate. */
constexpr size_t kOracleSamples = 3;

} // namespace

BatchResult
runBatch(const Prepared &p, const std::vector<geom::PointCloud> &clouds,
         uint64_t seed, double seconds)
{
    BatchResult r;
    const core::plan::CompiledEngine &engine = *p.engine;
    core::plan::ExecutionContext &ctx = *p.ctx;
    r.latencyMs.reserve(static_cast<size_t>(seconds * 2000.0) + 16);

    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point tEnd =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (uint64_t i = 0;; ++i) {
        const Clock::time_point a = Clock::now();
        if (a >= tEnd)
            break;
        const size_t c = i % clouds.size();
        const uint64_t s = requestSeed(seed, i);
        const Status st = engine.tryExecute(clouds[c], s, ctx);
        const Clock::time_point b = Clock::now();
        ++r.counts.attempted;
        if (!st.isOk()) {
            ++r.counts.failed;
            continue;
        }
        ++r.counts.succeeded;
        r.latencyMs.push_back(msBetween(a, b));
        // Spread the oracle samples over the run (cloud and seed vary).
        if (i % 7 == 3 && r.samples.size() < kOracleSamples)
            r.samples.push_back({c, s, ctx.logits()});
    }
    r.wallS = msBetween(t0, Clock::now()) / 1000.0;
    r.cpuS = cpuSeconds() - cpu0;
    return r;
}

Profile
profileSteps(const Prepared &p, const std::vector<geom::PointCloud> &clouds,
             uint64_t seed, double seconds, SpanLog *spans)
{
    const core::plan::CompiledEngine &engine = *p.engine;
    core::plan::ExecutionContext &ctx = *p.ctx;
    const size_t n = engine.steps().size();

    Profile prof;
    for (const core::plan::StepIR &s : engine.steps()) {
        prof.stepNames.push_back(s.name);
        prof.stepKinds.push_back(s.kind);
    }
    std::vector<std::vector<double>> perStep(n);
    std::vector<double> untraced, traced;
    std::vector<Clock::time_point> marks(n);
    const std::function<void(int32_t)> afterStep = [&](int32_t i) {
        marks[static_cast<size_t>(i)] = Clock::now();
    };

    const Clock::time_point tEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    // The same (cloud, seed) runs untraced then traced, so the pair
    // differs only by the hook: their gap is the tracing overhead.
    for (uint64_t i = 0; Clock::now() < tEnd || i < 4; ++i) {
        const geom::PointCloud &cloud = clouds[i % clouds.size()];
        const uint64_t s = requestSeed(seed ^ 0x5157ull, i);

        const Clock::time_point a = Clock::now();
        const Status st = engine.tryExecute(cloud, s, ctx);
        const Clock::time_point b = Clock::now();
        if (!st.isOk())
            throw std::runtime_error("profile execute failed: " +
                                     st.toString());
        untraced.push_back(msBetween(a, b));

        const Clock::time_point c = Clock::now();
        engine.execute(cloud, s, ctx, afterStep);
        const Clock::time_point d = Clock::now();
        traced.push_back(msBetween(c, d));

        const int64_t parent =
            spans ? spans->add("execute", i, -1, c, d, 0) : -1;
        Clock::time_point prev = c;
        for (size_t k = 0; k < n; ++k) {
            perStep[k].push_back(msBetween(prev, marks[k]));
            if (spans)
                spans->add(engine.steps()[k].name.c_str(), i, parent, prev,
                           marks[k], 0);
            prev = marks[k];
        }
    }
    for (const std::vector<double> &v : perStep)
        prof.stepMs.push_back(median(v));
    prof.executeMs = median(untraced);
    prof.tracedExecuteMs = median(traced);
    prof.executes = untraced.size();
    return prof;
}

} // namespace perfbench
