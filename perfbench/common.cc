#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include <sys/resource.h>

#include "core/trainer.h"
#include "trace.h"

namespace perfbench {

using namespace superbnn;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Checks::record(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    if (++failed_ <= 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
}

data::SyntheticMnist
makeMnist(std::uint64_t seed)
{
    data::SyntheticMnistOptions options;
    options.trainSize = 800;
    options.testSize = 200;
    options.seed = deriveSeed(seed, kDataSeed);
    return data::makeSyntheticMnist(options);
}

MlpModel
makeMlp(std::uint64_t seed)
{
    MlpModel model;
    model.rng = std::make_unique<Rng>(deriveSeed(seed, kInitSeed));
    model.mlp = std::make_unique<core::RandomizedMlp>(
        784, std::vector<std::size_t>{64}, 10,
        core::AqfpBehavior{16, 2.4, 0.0}, aqfp::AttenuationModel(),
        *model.rng);
    return model;
}

MlpModel
trainedMlp(const data::SyntheticMnist &data, std::uint64_t seed)
{
    MlpModel model = makeMlp(seed);
    core::TrainConfig config;
    config.epochs = 2;
    config.warmupEpochs = 1;
    (void)core::Trainer(config).train(*model.mlp, data.train, data.test,
                                      *model.rng);
    return model;
}

// ------------------------------------------------------------- spans ---

SpanRecorder::SpanRecorder() : origin(Clock::now())
{
    spans.reserve(1 << 16);
}

SpanRecorder::Id
SpanRecorder::begin(const char *name, Id parent, std::uint64_t request)
{
    const auto now = Clock::now();
    spans.push_back({name, now, now, parent, request});
    return static_cast<Id>(spans.size() - 1);
}

void
SpanRecorder::end(Id id)
{
    spans[static_cast<std::size_t>(id)].end = Clock::now();
}

SpanRecorder::Id
SpanRecorder::add(const char *name, Clock::time_point start,
                  Clock::time_point end, Id parent, std::uint64_t request)
{
    spans.push_back({name, start, end, parent, request});
    return static_cast<Id>(spans.size() - 1);
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = msBetween(spans[i].start, spans[i].end);
    for (const Span &span : spans)
        if (span.parent != kNone)
            self[static_cast<std::size_t>(span.parent)] -=
                msBetween(span.start, span.end);
    for (double &value : self)
        value = std::max(value, 0.0);
    return self;
}

SpanRecorder::Summary
SpanRecorder::summary(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    Summary out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (name != spans[i].name)
            continue;
        ++out.count;
        out.totalMs += msBetween(spans[i].start, spans[i].end);
        out.selfMs += self[i];
    }
    return out;
}

double
SpanRecorder::meanSelfMs(const std::string &name) const
{
    const Summary s = summary(name);
    return s.count == 0 ? 0.0 : s.selfMs / static_cast<double>(s.count);
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const std::vector<double> self = selfTimes();
    const auto micros = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(file,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"self_us\":%.3f,"
                     "\"parent\":%" PRId64 ",\"request\":%" PRIu64 "}\n",
                     i, s.name, micros(s.start), micros(s.end),
                     self[i] * 1000.0, s.parent, s.request);
    }
    return std::fclose(file) == 0;
}

} // namespace perfbench
