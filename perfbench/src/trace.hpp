// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call from the benchmark into a statim layer (design
// load, initial SSTA, one sizing step, a checkpoint save, ...). Spans are
// appended to a vector while the run executes and written out once, as a
// Chrome trace-event file, when the run ends. Every span carries the id
// of the measured repetition it belongs to and the index of the span that
// was open when it began, so self times can be derived offline.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
    const char* name;  ///< layer name, a string literal
    int run;           ///< repetition id
    int parent;        ///< index of the enclosing span, -1 at a root
    double start_s;    ///< seconds since the trace origin
    double end_s;

    [[nodiscard]] double seconds() const noexcept { return end_s - start_s; }
};

class Trace {
  public:
    Trace() : origin_(Clock::now()) {}

    /// Recording on or off; while off, begin()/end() record nothing.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Run id stamped on spans begun from now on.
    void set_run(int run) noexcept { run_ = run; }

    /// Opens a span; returns its index, or -1 when not recording.
    int begin(const char* name);
    /// Closes the span `begin` returned (no-op for -1).
    void end(int id);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    /// Durations in seconds of every recorded span called `name`.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const;

    /// Chrome trace-event JSON (chrome://tracing, Perfetto). `metadata`
    /// must be a JSON object; it is stored under "metadata".
    void write_json(std::ostream& out, const std::string& metadata) const;

  private:
    using Clock = std::chrono::steady_clock;
    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int run_{0};
    bool enabled_{false};
};

/// RAII span around one call.
class Scope {
  public:
    Scope(Trace& trace, const char* name) : trace_(trace), id_(trace.begin(name)) {}
    ~Scope() { trace_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Trace& trace_;
    int id_;
};

}  // namespace perfbench
