/**
 * @file
 * Shared pieces of the repo benchmark: clocks and summary statistics,
 * process CPU time, the metric sink that prints the result line, the
 * in-memory span log written as Chrome trace-event JSON, the bitwise
 * correctness gates, and the seeded input generator.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "geom/point_cloud.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Tail latency: the 90th percentile (nearest rank), with the sample
 * counts that support it. Higher percentiles were not steady from run
 * to run on a shared host: over six seeds of serve_pnpp phase (a), the
 * interquartile range over the median was 19% for p99, 16% for p98,
 * 10% for p95, 6% for p90 and 5% for p50.
 */
constexpr double kTailPercentile = 90.0;
struct Tail
{
    double valueMs = 0.0;
    size_t samples = 0;
    size_t beyond = 0; ///< samples above the percentile's rank
};
Tail tailOf(std::vector<double> v);

/** Process user+sys CPU seconds (getrusage, all threads). */
double cpuSeconds();

/** One JSON line on stdout: {"record": kind, ...fields}. Field values
 *  are pre-rendered JSON. */
void printRecord(
    const std::string &kind,
    const std::vector<std::pair<std::string, std::string>> &fields);

std::string jsonStr(const std::string &s);
std::string jsonNum(double v);

/** Named metrics with units; printed as the final result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string resultLine(uint64_t attempted, uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Spans recorded around the benchmark's calls into each layer, kept in
 * memory and written at exit as Chrome trace-event JSON. Spans of one
 * request share its id; a span's parent is the span that caused it.
 * Self time (duration minus the part covered by child spans) is
 * derived at write time.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity);

    /** Record a span; returns its index (parent handle), or -1 once
     *  the log is full. */
    int64_t add(const char *name, uint64_t requestId, int64_t parent,
                Clock::time_point start, Clock::time_point end,
                int32_t lane);

    /** Write every span to @p path (timestamps relative to @p origin,
     *  @p seed in the metadata); returns false on I/O failure. */
    bool writeChromeTrace(const std::string &path, Clock::time_point origin,
                          uint64_t seed) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t requestId;
        int64_t parent;
        Clock::time_point start, end;
        int32_t lane;
    };
    std::vector<Span> spans_;
    size_t capacity_;
};

/** A failed correctness gate: the run exits non-zero, no metrics. */
struct GateFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Which gate the self-test corrupts on purpose (None in real runs). */
enum class Corrupt
{
    None,
    Served, ///< served logits vs direct execute
    Loaded, ///< artifact-loaded engine vs fresh compile
    Oracle, ///< compiled engine vs NetworkExecutor::run
};

/** Throw GateFailure unless @p got is bitwise equal to @p want. With
 *  @p corrupt set, one bit of @p want is flipped first (self-test). */
void requireBitwise(const mesorasi::tensor::Tensor &got,
                    const mesorasi::tensor::Tensor &want, bool corrupt,
                    const std::string &what);

/** @p n distinct seeded input clouds for @p cfg's input size. */
std::vector<mesorasi::geom::PointCloud>
makeClouds(const mesorasi::core::NetworkConfig &cfg, uint64_t seed,
           int32_t n);

/** Sampling seed of request @p i of a run seeded with @p seed. */
uint64_t requestSeed(uint64_t seed, uint64_t i);

/** Host, build and layout fingerprint, as JSON fields. */
std::vector<std::pair<std::string, std::string>> hostFingerprint();

} // namespace perfbench
