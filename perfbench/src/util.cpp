#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "geom/datasets.hpp"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2 == 1)
        return v[mid];
    const double hi = v[mid];
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(kTailPercentile / 100.0 * static_cast<double>(v.size())));
    const size_t idx = std::max<size_t>(rank, 1) - 1;
    t.valueMs = v[idx];
    t.beyond = v.size() - 1 - idx;
    return t;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printRecord(const std::string &kind,
            const std::vector<std::pair<std::string, std::string>> &fields)
{
    std::string line = "{\"record\": " + jsonStr(kind);
    for (const auto &[k, v] : fields)
        line += ", " + jsonStr(k) + ": " + v;
    std::cout << line << "}\n";
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    for (Entry &e : entries_)
        if (e.name == name) {
            e = {name, value, unit};
            return;
        }
    entries_.push_back({name, value, unit});
}

std::string
Metrics::resultLine(uint64_t attempted, uint64_t failed) const
{
    std::string m;
    for (const Entry &e : entries_)
        m += (m.empty() ? "" : ", ") + jsonStr(e.name) +
             ": {\"value\": " + jsonNum(e.value) +
             ", \"unit\": " + jsonStr(e.unit) + "}";
    return "{\"correct\": true, \"attempted\": " +
           std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           m + "}}";
}

SpanLog::SpanLog(size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity);
}

int64_t
SpanLog::add(const char *name, uint64_t requestId, int64_t parent,
             Clock::time_point start, Clock::time_point end, int32_t lane)
{
    if (spans_.size() >= capacity_)
        return -1;
    spans_.push_back({name, requestId, parent, start, end, lane});
    return static_cast<int64_t>(spans_.size()) - 1;
}

bool
SpanLog::writeChromeTrace(const std::string &path, Clock::time_point origin,
                          uint64_t seed) const
{
    // Self time = duration minus the union of the children's
    // intervals (clipped to the parent).
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back(
                {us(s.start), us(s.end)});

    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"seed\": " << seed
       << "}, \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double b = us(s.start), e = us(s.end);
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, reach = b;
        for (const auto &[cb, ce] : iv) {
            const double lo = std::max(cb, reach), hi = std::min(ce, e);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        os << (i ? ",\n" : "") << "{\"name\": " << jsonStr(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
           << ", \"ts\": " << jsonNum(b) << ", \"dur\": " << jsonNum(e - b)
           << ", \"args\": {\"request\": " << s.requestId
           << ", \"span\": " << i << ", \"parent\": " << s.parent
           << ", \"self_us\": " << jsonNum(e - b - covered) << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
requireBitwise(const mesorasi::tensor::Tensor &got,
               const mesorasi::tensor::Tensor &want, bool corrupt,
               const std::string &what)
{
    std::vector<float> expect(want.data(), want.data() + want.numel());
    if (corrupt && !expect.empty()) {
        uint32_t bits = 0;
        std::memcpy(&bits, &expect[0], sizeof bits);
        bits ^= 1u;
        std::memcpy(&expect[0], &bits, sizeof bits);
    }
    if (got.rows() != want.rows() || got.cols() != want.cols() ||
        std::memcmp(got.data(), expect.data(),
                    expect.size() * sizeof(float)) != 0)
        throw GateFailure(what + ": logits are not bitwise equal");
}

std::vector<mesorasi::geom::PointCloud>
makeClouds(const mesorasi::core::NetworkConfig &cfg, uint64_t seed,
           int32_t n)
{
    mesorasi::geom::ModelNetSim sim(seed, cfg.numInputPoints);
    std::vector<mesorasi::geom::PointCloud> clouds;
    clouds.reserve(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i)
        clouds.push_back(sim.sample().cloud);
    return clouds;
}

uint64_t
requestSeed(uint64_t seed, uint64_t i)
{
    // splitmix64 of (seed, i): distinct, reproducible sampling seeds.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::pair<std::string, std::string>>
hostFingerprint()
{
    const char *threadsEnv = std::getenv("MESORASI_THREADS");
    __builtin_cpu_init();
    return {
        {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
        {"hw_threads",
         std::to_string(std::thread::hardware_concurrency())},
        {"cpu_sse2", __builtin_cpu_supports("sse2") ? "true" : "false"},
        {"cpu_avx2", __builtin_cpu_supports("avx2") ? "true" : "false"},
        {"cpu_avx512f",
         __builtin_cpu_supports("avx512f") ? "true" : "false"},
        {"simd_isa", jsonStr(mesorasi::simd::kIsa)},
        {"simd_width", std::to_string(mesorasi::simd::kWidth)},
        {"compiler", jsonStr(__VERSION__)},
        {"cxx_flags", jsonStr(PERFBENCH_CXX_FLAGS)},
        {"build_type", jsonStr(PERFBENCH_BUILD_TYPE)},
        {"mesorasi_threads", threadsEnv ? jsonStr(threadsEnv) : "null"},
        {"pool_threads",
         std::to_string(mesorasi::ThreadPool::global().size())},
    };
}

} // namespace perfbench
