/**
 * @file
 * Span recorder of the benchmark's traced run: spans (name, start, end,
 * parent) are kept in memory around the benchmark's own calls into the
 * library and written once, at the end, as Chrome trace-event JSON,
 * which Perfetto and chrome://tracing open as is.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (arbitrary epoch). */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Track ids of the span file. */
enum Track : int {
    kCalls = 1,   ///< spans timed around the benchmark's calls
    kPhases = 2,  ///< ClusterSim phase totals, laid end to end
};

struct Span
{
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span; -1 = top level
    int track = kCalls;
    /** Extra JSON members for the event's args ("\"k\": \"v\""). */
    std::string args;

    double durS() const { return end_s - start_s; }
};

class SpanRecorder
{
  public:
    /** Open a span now. @return its id. */
    int
    begin(std::string name, int parent = -1, std::string args = {})
    {
        double t = nowS();
        return add(Span{std::move(name), t, t, parent, kCalls,
                        std::move(args)});
    }

    /** Close span `id` now. */
    void end(int id) { spans_[static_cast<size_t>(id)].end_s = nowS(); }

    /** Record a span whose interval is already known. */
    int
    add(Span s)
    {
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }

    const Span& operator[](int id) const
    { return spans_[static_cast<size_t>(id)]; }

    /** Span duration minus the part of it its child spans cover. */
    double
    selfS(int id) const
    {
        const Span& p = (*this)[id];
        std::vector<std::pair<double, double>> kids;
        for (const Span& s : spans_)
            if (s.parent == id)
                kids.emplace_back(std::max(s.start_s, p.start_s),
                                  std::min(s.end_s, p.end_s));
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, reach = p.start_s;
        for (const auto& [lo, hi] : kids) {
            double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        return p.durS() - covered;
    }

    /** Summed duration and count of the spans called `name`. */
    double
    totalS(const std::string& name, int* count = nullptr) const
    {
        double t = 0.0;
        int n = 0;
        for (const Span& s : spans_)
            if (s.name == name) {
                t += s.durS();
                ++n;
            }
        if (count != nullptr)
            *count = n;
        return t;
    }

    /**
     * Write every span as a complete ("X") event, microseconds from the
     * earliest span, with its parent's name and its self time in args.
     * @return true when the file was written.
     */
    bool
    writeChromeJson(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
        for (const Span& s : spans_)
            t0 = std::min(t0, s.start_s);
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        std::fprintf(f,
                     "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"name\": \"benchmark calls\"}},\n"
                     "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"name\": \"ClusterSim phase "
                     "totals\"}}",
                     kCalls, kPhases);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(
                f,
                ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"parent\": \"%s\", \"self_ms\": %.3f%s%s}}",
                s.name.c_str(), s.track, (s.start_s - t0) * 1e6,
                s.durS() * 1e6,
                s.parent >= 0 ? (*this)[s.parent].name.c_str() : "",
                selfS(static_cast<int>(i)) * 1e3, s.args.empty() ? "" : ", ",
                s.args.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

}  // namespace perfbench
