// In-memory span recorder for the benchmark's traced replay.
//
// A span covers one call into a layer's public functions: name
// ("<layer>.<what>"), start and end on a steady clock, the enclosing
// span, and the request it belongs to. Spans are appended to a vector
// while the replay runs and written out once at the end, so recording
// costs two clock reads and one push_back per call. The recorder is
// single-threaded: spans nest strictly, opened and closed on the
// replay's own thread (library calls may still use their thread pool
// inside a span).
#ifndef PERFBENCH_SPAN_RECORDER_H
#define PERFBENCH_SPAN_RECORDER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int request = 0; ///< spans of one request share this id
};

class span_recorder {
public:
    span_recorder() : origin_(clock::now()) {}

    /// Open a span under the innermost open one; a root (no open span)
    /// takes `request`, a child inherits its parent's.
    int open(std::string name, int request = 0)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        const int req = parent < 0 ? request : spans_[static_cast<std::size_t>(parent)].request;
        spans_.push_back({std::move(name), now_ns(), 0, parent, req});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        stack_.pop_back();
    }

    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

    /// RAII span: open on construction, close on scope exit (exceptions
    /// included, so a throwing layer call still leaves a closed span).
    class scope {
    public:
        scope(span_recorder& rec, std::string name, int request = 0)
            : rec_(rec), id_(rec.open(std::move(name), request))
        {
        }
        ~scope() { rec_.close(id_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        span_recorder& rec_;
        int id_;
    };

private:
    using clock = std::chrono::steady_clock;

    [[nodiscard]] std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - origin_)
            .count();
    }

    clock::time_point origin_;
    std::vector<span> spans_;
    std::vector<int> stack_;
};

/// Run fn inside a span and return its result (prvalues pass through
/// without a copy or move, so non-movable results such as snapshots work).
template <class Fn>
decltype(auto) traced(span_recorder& rec, std::string name, Fn&& fn)
{
    const span_recorder::scope s(rec, std::move(name));
    return fn();
}

} // namespace perfbench

#endif // PERFBENCH_SPAN_RECORDER_H
