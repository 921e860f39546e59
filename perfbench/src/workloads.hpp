// The benchmark's workloads and the measured loop that drives each one
// through statim's public API.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/statim.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    std::string circuit;
    /// One scenario for an in-process sizing workload; the scenario set
    /// for a dispatch workload.
    std::vector<statim::api::Scenario> scenarios;
    /// `statim serve` worker processes; 0 = in-process SizingRun.
    int workers{0};

    [[nodiscard]] bool dispatch() const noexcept { return workers > 0; }
    /// Cores the workload asks for: threads per run × worker processes.
    [[nodiscard]] std::size_t cores() const;
};

/// Every workload, with every Scenario field set explicitly. `seed` is
/// the Scenario seed; `smoke` shrinks each iteration budget to the
/// minimum the self-test needs.
[[nodiscard]] std::vector<Workload> all_workloads(std::uint64_t seed, bool smoke);

/// Recorded outputs, keyed "<workload>[/<scenario>]@<full|smoke>".
using Golden = std::map<std::string, std::string>;
/// Reads `key value...` lines ('#' starts a comment). Throws on I/O error.
[[nodiscard]] Golden load_golden(const std::string& path);

struct RunOptions {
    double seconds{10.0};
    bool trace{false};
    bool smoke{false};
    const Golden* golden{nullptr};
    /// argv[0] of the dispatch workers (`statim serve`).
    std::string serve_bin;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Outcome {
    int attempted{0};
    int failed{0};
    std::vector<std::string> errors;
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    std::vector<Metric> metrics;
    /// Sample counts and other context for the human-readable report.
    std::vector<std::string> notes;
};

/// Runs `w` for `opt.seconds` of measured repetitions, checking every
/// repetition's outputs against the recorded values.
[[nodiscard]] Outcome run_workload(const Workload& w, const RunOptions& opt, Trace& trace);

}  // namespace perfbench
