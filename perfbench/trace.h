/**
 * @file
 * In-memory span recorder of the traced run. A span is one call into a
 * layer, timed from the benchmark around the layer's public function:
 * name, start, end, the span that caused it, and the request it served.
 * Spans stay in memory while the run measures and are written out as
 * JSON lines when it ends. A span's self time is its duration minus the
 * durations of its direct children (children of one parent never
 * overlap: every traced caller is sequential).
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class SpanRecorder
{
  public:
    using Id = std::int64_t;
    static constexpr Id kNone = -1;

    SpanRecorder();

    /** Open a span now; close it with end(). @p name must be static. */
    Id begin(const char *name, Id parent = kNone,
             std::uint64_t request = 0);
    void end(Id id);

    /** Record an interval measured elsewhere (e.g. by the service). */
    Id add(const char *name, Clock::time_point start,
           Clock::time_point end, Id parent = kNone,
           std::uint64_t request = 0);

    /** Aggregate of every span called @p name. */
    struct Summary
    {
        std::size_t count = 0;
        double totalMs = 0.0; ///< summed durations
        double selfMs = 0.0;  ///< summed self times
    };
    Summary summary(const std::string &name) const;

    /** Mean self time of a @p name span, in ms (0 when none). */
    double meanSelfMs(const std::string &name) const;

    std::size_t size() const { return spans.size(); }

    /** Write every span as one JSON object per line; false on error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        Id parent;
        std::uint64_t request;
    };
    Clock::time_point origin;
    std::vector<Span> spans;

    /** Self time of every span, in ms, indexed like spans. */
    std::vector<double> selfTimes() const;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               SpanRecorder::Id parent = SpanRecorder::kNone,
               std::uint64_t request = 0)
        : rec(recorder), id_(recorder.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { rec.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanRecorder::Id id() const { return id_; }

  private:
    SpanRecorder &rec;
    SpanRecorder::Id id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
