#include "trace.hpp"

#include <cstdio>
#include <ostream>

namespace perfbench {

int Trace::begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    const double t = now();
    spans_.push_back(Span{name, run_, parent, t, t});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void Trace::end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    // Scopes nest, so the span being closed is the innermost open one.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Trace::durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (name == s.name) out.push_back(s.seconds());
    return out;
}

void Trace::write_json(std::ostream& out, const std::string& metadata) const {
    // Complete ("X") events in microseconds; one Chrome "thread" per run id
    // so each repetition renders as its own lane.
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata
        << ",\"traceEvents\":[";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"run\":%d}}",
                      i == 0 ? "" : ",", s.name, s.run, s.start_s * 1e6,
                      s.seconds() * 1e6, i, s.parent, s.run);
        out << buf;
    }
    out << "\n]}\n";
}

}  // namespace perfbench
