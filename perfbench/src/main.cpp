// statim_perfbench — the end-to-end benchmark program.
//
//   statim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --golden FILE --out DIR [--smoke]
//                    [--source DIGEST] [--commit SHA]
//
// Runs one workload for S seconds of measured repetitions through the
// public API, checks every output against the recorded values, prints a
// human-readable report and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a traced
// run and writes its spans to DIR/trace-<workload>-seed<N>.json. Exits 1
// on any correctness failure, 2 on a usage or environment error.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/statim.hpp"
#include "prob/kernels/kernels.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Metric;

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    bool smoke{false};
    std::string golden;
    std::string out_dir;
    std::string source{"unknown"};
    std::string commit{"unknown"};
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false, have_golden = false, have_out = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--golden") {
            a.golden = value;
            have_golden = true;
        } else if (flag == "--out") {
            a.out_dir = value;
            have_out = true;
        } else if (flag == "--source") {
            a.source = value;
        } else if (flag == "--commit") {
            a.commit = value;
        } else {
            throw std::invalid_argument("unknown flag " + std::string(flag));
        }
    }
    if (!have_workload || !have_golden || !have_out)
        throw std::invalid_argument("--workload, --golden and --out are required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return a;
}

/// Clears every STATIM_* variable, so the workload definition — not the
/// ambient environment — fixes threads, batch size, selector floor and
/// cache, SIMD level, fast math and the dispatch knobs. The dispatch
/// workers inherit the cleared environment.
void pin_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string_view kv(*e);
        if (kv.starts_with("STATIM_")) names.emplace_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string& n : names) unsetenv(n.c_str());
}

std::size_t host_cores() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(metrics[i].name) + ": {\"value\": " +
               json_number(metrics[i].value) + ", \"unit\": " +
               json_string(metrics[i].unit) + "}";
    }
    return out + "}";
}

int run(const Args& args) {
    bool release = std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
    release = false;
#endif
    if (!release) {
        std::cerr << "error: statim_perfbench must be a Release build (this is '"
                  << PERFBENCH_BUILD_TYPE << "')\n";
        return 2;
    }

    const std::vector<perfbench::Workload> workloads =
        perfbench::all_workloads(args.seed, args.smoke);
    const perfbench::Workload* w = nullptr;
    for (const auto& candidate : workloads)
        if (candidate.name == args.workload) w = &candidate;
    if (w == nullptr) {
        std::cerr << "error: unknown workload '" << args.workload << "'; known:";
        for (const auto& candidate : workloads) std::cerr << ' ' << candidate.name;
        std::cerr << '\n';
        return 2;
    }
    const std::size_t cores = host_cores();
    if (w->cores() > cores) {
        std::cerr << "error: " << w->name << " needs " << w->cores()
                  << " cores (threads x workers), this host has " << cores << '\n';
        return 2;
    }

    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "0x%016llx",
                  static_cast<unsigned long long>(statim::api::builtin_library_fingerprint()));
    const std::string stamp =
        "{\"workload\": " + json_string(w->name) + ", \"seed\": " +
        std::to_string(args.seed) + ", \"seconds\": " + json_number(args.seconds) +
        ", \"trace\": " + (args.trace ? "1" : "0") + ", \"smoke\": " +
        (args.smoke ? "true" : "false") + ", \"nproc\": " + std::to_string(cores) +
        ", \"simd\": " + json_string(statim::prob::kernels::active().name) +
        ", \"version\": " + json_string(statim::api::version()) +
        ", \"library_fingerprint\": " + json_string(fingerprint) +
        ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
        ", \"source_sha256\": " + json_string(args.source) +
        ", \"commit\": " + json_string(args.commit) + "}";

    const perfbench::Golden golden = perfbench::load_golden(args.golden);
    perfbench::RunOptions opt;
    opt.seconds = args.seconds;
    opt.trace = args.trace;
    opt.smoke = args.smoke;
    opt.golden = &golden;
    opt.serve_bin = PERFBENCH_SERVE_BIN;

    perfbench::Trace trace;
    const perfbench::Outcome outcome = perfbench::run_workload(*w, opt, trace);

    std::filesystem::create_directories(args.out_dir);
    const std::string tag = w->name + "-seed" + std::to_string(args.seed);
    if (args.trace) {
        std::ofstream f(args.out_dir + "/trace-" + tag + ".json");
        trace.write_json(f, stamp);
    }
    const bool correct = outcome.failed == 0;
    const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(outcome.attempted) +
                               ", \"failed\": " + std::to_string(outcome.failed) +
                               ", \"metrics\": " + metrics_json(outcome.metrics) + "}";
    {
        std::ofstream f(args.out_dir + "/result-" + tag + "-trace" +
                        (args.trace ? "1" : "0") + ".json");
        f << "{\"stamp\": " << stamp << ", \"result\": " << result << "}\n";
    }

    std::cout << "statim perfbench " << stamp << '\n';
    for (const Metric& m : outcome.metrics)
        std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  %-32s %d/%d\n", "fail_ratio", outcome.failed, outcome.attempted);
    for (const std::string& n : outcome.notes) std::cout << "  # " << n << '\n';
    for (const std::string& e : outcome.errors) std::cout << "  ! " << e << '\n';
    std::cout << result << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    pin_environment();
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "usage error: " << e.what() << '\n';
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
