#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "util/alloc_stats.hpp"

namespace perfbench {

namespace api = statim::api;

namespace {

/// Monte Carlo samples of every validation the benchmark runs: the
/// dispatch scenarios' post-sizing check and the traced runs' mc.validate.
constexpr std::size_t kMcSamples = 1000;
/// Set-up-only repetitions before the measured window. They warm the
/// thread pool and kernel dispatch and add set-up samples.
constexpr int kSetupOnlyReps = 5;

class Stopwatch {
  public:
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }
    void reset() { start_ = Clock::now(); }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_{Clock::now()};
};

/// Repetition schedule of one run. Repetition 0 is a warm-up: checked,
/// but not timed into run_s (it grows the process's pools and arenas, a
/// cost reported separately as proc.first_run_s). The measured window of
/// `seconds` starts after it. A traced run alternates untraced and traced
/// repetitions (their difference is the tracing overhead) and ends on a
/// traced one.
class Schedule {
  public:
    Schedule(double seconds, bool trace) : seconds_(seconds), trace_(trace) {}

    [[nodiscard]] int rep() const noexcept { return rep_; }
    [[nodiscard]] bool warmup() const noexcept { return rep_ == 0; }
    [[nodiscard]] bool traced() const noexcept { return trace_ && rep_ > 0 && rep_ % 2 == 0; }
    /// True when the current repetition is the run's last.
    [[nodiscard]] bool ending() const {
        return rep_ > 0 && window_.seconds() >= seconds_ && (!trace_ || traced());
    }
    void advance() {
        if (rep_ == 0) window_.reset();
        ++rep_;
    }

  private:
    double seconds_;
    bool trace_;
    int rep_{0};
    Stopwatch window_;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hexfloat(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/// FNV-1a over the bit patterns of a width vector — the same digest the
/// dispatch report prints as "widths_fnv".
std::string widths_digest(const std::vector<double>& widths) {
    std::uint64_t h = 14695981039346656037ull;
    for (double w : widths) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &w, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::vector<double> widths_of(const api::Design& design) {
    std::vector<double> out;
    out.reserve(design.gate_count());
    for (const auto& gate : design.netlist().gates()) out.push_back(gate.width);
    return out;
}

std::uint64_t fnv_bytes(const std::string& s) {
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// "VmRSS:" / "VmHWM:" of /proc/self/status, in MB (0 when unavailable).
double proc_status_mb(const char* key) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, n, key) == 0) return std::stod(line.substr(n)) / 1024.0;
    return 0.0;
}

/// Peak RSS of this process and of its waited-for children, in MB.
double peak_rss_mb() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

api::Scenario make_scenario(std::string name, api::Scenario::Objective objective,
                            double percentile, api::Scenario::Selector selector,
                            int gates_per_iteration, std::size_t threads,
                            int iterations, std::size_t mc_samples,
                            std::uint64_t seed) {
    api::Scenario s;
    s.name = std::move(name);
    s.objective = objective;
    s.percentile = percentile;
    s.grid_bins = 0;
    s.selector = selector;
    s.delta_w = 0.25;
    s.max_width = 16.0;
    s.max_iterations = iterations;
    s.area_budget = std::numeric_limits<double>::infinity();
    s.target_objective_ns = 0.0;
    s.gates_per_iteration = gates_per_iteration;
    s.threads = threads;
    s.incremental_ssta = true;
    s.simd = "auto";
    s.crit_floor = 0.05;
    s.selector_cache = true;
    s.mc_samples = mc_samples;
    s.seed = seed;
    return s;
}

/// The recorded form of one sizing outcome.
std::string golden_value(int iterations, const std::vector<double>& widths,
                         const statim::core::SizingResult& r) {
    return "iterations=" + std::to_string(iterations) + " widths=" +
           widths_digest(widths) + " initial=" + hexfloat(r.initial_objective_ns) +
           " final=" + hexfloat(r.final_objective_ns);
}

/// Empty when `value` matches the recorded one for `key`, else the reason
/// (which carries the computed line, ready to record).
std::string check_golden(const RunOptions& opt, const std::string& key,
                         const std::string& value) {
    const auto it = opt.golden->find(key);
    if (it == opt.golden->end()) return key + ": no recorded value (computed " + value + ")";
    if (it->second != value)
        return key + ": computed " + value + ", recorded " + it->second;
    return {};
}

double gain_pct(const statim::core::SizingResult& r) {
    return 100.0 * (r.initial_objective_ns - r.final_objective_ns) / r.initial_objective_ns;
}

/// Layer accounting summed over the traced repetitions (or over the
/// dispatch reference's scenarios); `units` is what they sum over.
struct LayerStats {
    int units{0};
    int steps{0};
    std::vector<double> step_ms;
    double step_s{0.0};
    double selector_s{0.0};
    double refresh_s{0.0};
    double refresh_nodes{0.0};
    double passes{0.0};
    double conflicts{0.0};
    statim::core::SelectorStats sel{};
    double allocs{0.0};
    double alloc_bytes{0.0};
    std::vector<double> rss_setup_mb;
    double first_run_s{0.0};
    double hwm_run_mb{0.0};
    double rss_end_mb{0.0};
    double save_ms{0.0};
    double checkpoint_bytes{0.0};
    double resume_ms{0.0};
    std::vector<double> mc_s;

    void add_result(const statim::core::SizingResult& r) {
        for (const auto& rec : r.history) {
            const auto& s = rec.stats;
            selector_s += s.seconds;
            sel.candidates += s.candidates;
            sel.completed += s.completed;
            sel.pruned += s.pruned;
            sel.died += s.died;
            sel.nodes_computed += s.nodes_computed;
            sel.cache_hits += s.cache_hits;
            sel.floor_deferred += s.floor_deferred;
        }
        refresh_s += r.ssta_refresh_seconds;
        refresh_nodes += static_cast<double>(r.ssta_nodes_recomputed);
        passes += static_cast<double>(r.selector_passes);
        conflicts += static_cast<double>(r.conflicts_skipped);
    }
};

/// Steps `run` to its iteration budget, one core.step span (and, when
/// traced, one allocation bracket) per step.
void step_all(api::SizingRun& run, Trace& trace, LayerStats* layers) {
    bool more = true;
    while (more) {
        const Stopwatch sw;
        const statim::util::AllocationSpan allocs;
        {
            const Scope span(trace, "core.step");
            more = run.step();
        }
        if (layers != nullptr) {
            const double s = sw.seconds();
            layers->step_ms.push_back(1e3 * s);
            layers->step_s += s;
            layers->allocs += static_cast<double>(allocs.count());
            layers->alloc_bytes += static_cast<double>(allocs.bytes());
            ++layers->steps;
        }
    }
}

struct SizedRun {
    std::unique_ptr<api::Design> design;  // the run sizes it in place
    std::unique_ptr<api::SizingRun> run;
};

/// Design load plus SizingRun construction (which runs the initial SSTA).
SizedRun set_up_run(const std::string& circuit, const api::Scenario& scenario,
                    Trace& trace) {
    SizedRun r;
    {
        const Scope span(trace, "netlist.load");
        r.design = std::make_unique<api::Design>(api::Design::from_registry(circuit));
    }
    const Scope span(trace, "ssta.initial");
    r.run = std::make_unique<api::SizingRun>(*r.design, scenario);
    return r;
}

/// Monte Carlo validation of the run's sized design.
api::McSummary validate(api::SizingRun& run, std::size_t samples, Trace& trace,
                        LayerStats& layers) {
    const Stopwatch sw;
    const Scope span(trace, "mc.validate");
    api::McSummary mc = run.validate_mc(samples);
    layers.mc_s.push_back(sw.seconds());
    return mc;
}

/// The traced run's one-off calls on a finished run: checkpoint save,
/// resume onto a fresh Design (whose widths must match), then Monte Carlo
/// validation. Throws on a resume mismatch.
api::McSummary traced_extras(SizedRun& r, const std::string& circuit, std::size_t samples,
                             Trace& trace, LayerStats& layers) {
    std::ostringstream saved;
    {
        const Stopwatch sw;
        const Scope span(trace, "api.checkpoint.save");
        r.run->save(saved);
        layers.save_ms = 1e3 * sw.seconds();
    }
    const std::string bytes = saved.str();
    layers.checkpoint_bytes = static_cast<double>(bytes.size());
    std::unique_ptr<api::Design> fresh;
    {
        const Scope span(trace, "netlist.load");
        fresh = std::make_unique<api::Design>(api::Design::from_registry(circuit));
    }
    {
        std::istringstream in(bytes);
        const Stopwatch sw;
        const Scope span(trace, "api.checkpoint.resume");
        const api::SizingRun resumed = api::SizingRun::resume(*fresh, in);
        layers.resume_ms = 1e3 * sw.seconds();
        if (resumed.iteration() != r.run->iteration() ||
            widths_of(*fresh) != widths_of(*r.design))
            throw std::runtime_error("resumed run differs from the saved one");
    }
    return validate(*r.run, samples, trace, layers);
}

void add(std::vector<Metric>& out, const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
}

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const LayerStats& L, const Trace& trace,
                                  double overhead_pct, const api::DispatchReport* report,
                                  double report_bytes) {
    const double u = std::max(L.units, 1);
    const double cand = static_cast<double>(L.sel.candidates);
    const double residual = L.step_s - L.selector_s - L.refresh_s;
    std::vector<Metric> m;
    add(m, "netlist.load_s", median(trace.durations("netlist.load")), "s");
    add(m, "ssta.initial_s", median(trace.durations("ssta.initial")), "s");
    add(m, "core.steps", L.steps / u, "count");
    add(m, "core.step_p50_ms", median(L.step_ms), "ms");
    add(m, "core.step_max_ms", max_of(L.step_ms), "ms");
    add(m, "core.selector_s", L.selector_s / u, "s");
    add(m, "core.selector_share", ratio(L.selector_s, L.step_s), "ratio");
    add(m, "core.selector.passes", L.passes / u, "count");
    add(m, "core.selector.candidates", cand / u, "count");
    add(m, "core.selector.completed", static_cast<double>(L.sel.completed) / u, "count");
    add(m, "core.selector.pruned", static_cast<double>(L.sel.pruned) / u, "count");
    add(m, "core.selector.died", static_cast<double>(L.sel.died) / u, "count");
    add(m, "core.selector.cache_hits", static_cast<double>(L.sel.cache_hits) / u, "count");
    add(m, "core.selector.floor_deferred", static_cast<double>(L.sel.floor_deferred) / u,
        "count");
    add(m, "core.selector.nodes_computed", static_cast<double>(L.sel.nodes_computed) / u,
        "count");
    add(m, "core.selector.prune_ratio", ratio(static_cast<double>(L.sel.pruned), cand),
        "ratio");
    add(m, "core.selector.cache_hit_ratio",
        ratio(static_cast<double>(L.sel.cache_hits), cand), "ratio");
    add(m, "core.selector.nodes_per_pass",
        ratio(static_cast<double>(L.sel.nodes_computed), L.passes), "count");
    add(m, "core.conflicts_skipped", L.conflicts / u, "count");
    add(m, "core.step_residual_s", residual / u, "s");
    add(m, "ssta.refresh_s", L.refresh_s / u, "s");
    add(m, "ssta.refresh_nodes", L.refresh_nodes / u, "count");
    add(m, "util.allocs_per_step", ratio(L.allocs, L.steps), "count");
    add(m, "util.alloc_mb_per_step", ratio(L.alloc_bytes, L.steps) / (1024.0 * 1024.0), "MB");
    add(m, "proc.first_run_s", L.first_run_s, "s");
    add(m, "proc.rss_setup_mb", median(L.rss_setup_mb), "MB");
    add(m, "proc.hwm_run_mb", L.hwm_run_mb, "MB");
    add(m, "proc.rss_end_mb", L.rss_end_mb, "MB");
    add(m, "api.checkpoint.save_ms", L.save_ms, "ms");
    add(m, "api.checkpoint.bytes", L.checkpoint_bytes, "bytes");
    add(m, "api.checkpoint.resume_ms", L.resume_ms, "ms");
    add(m, "mc.validate_s", median(L.mc_s), "s");
    double attempts = 0.0, migrations = 0.0, ok = 0.0;
    if (report != nullptr) {
        for (const auto& o : report->outcomes) {
            attempts += o.attempts;
            migrations += o.migrations;
            ok += o.ok ? 1.0 : 0.0;
        }
    }
    add(m, "dist.attempts", attempts, "count");
    add(m, "dist.migrations", migrations, "count");
    add(m, "dist.scenarios_ok", ok, "count");
    add(m, "dist.report_bytes", report_bytes, "bytes");
    add(m, "trace.overhead_pct", overhead_pct, "%");
    add(m, "trace.spans", static_cast<double>(trace.spans().size()), "count");
    return m;
}

double overhead_pct(const std::vector<double>& traced, const std::vector<double>& plain) {
    const double base = median(plain);
    return base > 0.0 ? 100.0 * (median(traced) / base - 1.0) : 0.0;
}

std::string mode(const RunOptions& opt) { return opt.smoke ? "smoke" : "full"; }

std::string samples_note(const char* what, const std::vector<double>& v) {
    std::string s = std::string(what) + " samples (s):";
    char buf[32];
    for (double x : v) {
        std::snprintf(buf, sizeof(buf), " %.4f", x);
        s += buf;
    }
    return s;
}

// ---- in-process sizing workloads ------------------------------------------

/// What a run collects over its repetitions.
struct Samples {
    std::vector<double> setup_s;
    std::vector<double> run_plain;   ///< untraced measured repetitions
    std::vector<double> run_traced;  ///< traced measured repetitions
    LayerStats layers;
    double gain_pct{0.0};

    void add_run(const Schedule& sched, double seconds) {
        if (sched.warmup())
            layers.first_run_s = seconds;
        else
            (sched.traced() ? run_traced : run_plain).push_back(seconds);
    }
};

/// Books one operation, failed when `errors` is non-empty.
void book(Outcome& out, const std::vector<std::string>& errors) {
    ++out.attempted;
    if (errors.empty()) return;
    ++out.failed;
    out.errors.insert(out.errors.end(), errors.begin(), errors.end());
}

/// Fills out.metrics: the per-layer metrics of a traced run, else the
/// end-to-end metrics.
void finish(Outcome& out, const RunOptions& opt, const Samples& s, const Trace& trace,
            double peak_mb, const api::DispatchReport* dispatch, double report_bytes) {
    if (opt.trace) {
        out.metrics = layer_metrics(s.layers, trace, overhead_pct(s.run_traced, s.run_plain),
                                    dispatch, report_bytes);
        out.notes.push_back("traced repetitions " + std::to_string(s.run_traced.size()) +
                            ", untraced " + std::to_string(s.run_plain.size()));
        return;
    }
    add(out.metrics, "setup_s", median(s.setup_s), "s");
    add(out.metrics, "run_s", median(s.run_plain), "s");
    add(out.metrics, "peak_rss_mb", peak_mb, "MB");
    add(out.metrics, "p99_gain_pct", s.gain_pct, "%");
    out.notes.push_back("setup_s: median of " + std::to_string(s.setup_s.size()) +
                        " set-ups; run_s: median of " + std::to_string(s.run_plain.size()) +
                        " repetitions");
    out.notes.push_back(samples_note("run_s", s.run_plain));
}

void push_error(std::vector<std::string>& errors, std::string error) {
    if (!error.empty()) errors.push_back(std::move(error));
}

Outcome run_size(const Workload& w, const RunOptions& opt, Trace& trace) {
    const api::Scenario& scenario = w.scenarios.front();
    const std::string key = w.name + "@" + mode(opt);
    Outcome out;
    Samples s;
    LayerStats& layers = s.layers;

    for (int i = 0; i < kSetupOnlyReps; ++i) {
        trace.set_enabled(opt.trace);
        trace.set_run(-1 - i);
        const Scope root(trace, "setup");
        const Stopwatch sw;
        (void)set_up_run(w.circuit, scenario, trace);
        s.setup_s.push_back(sw.seconds());
    }

    for (Schedule sched(opt.seconds, opt.trace);; sched.advance()) {
        const bool traced = sched.traced();
        trace.set_enabled(traced);
        trace.set_run(sched.rep());
        std::vector<std::string> errors;
        bool last = false;
        {
            const Scope root(trace, "rep");
            SizedRun r;
            try {
                const Stopwatch sw;
                r = set_up_run(w.circuit, scenario, trace);
                s.setup_s.push_back(sw.seconds());
                if (traced) layers.rss_setup_mb.push_back(proc_status_mb("VmRSS:"));

                const Stopwatch run_sw;
                step_all(*r.run, trace, traced ? &layers : nullptr);
                s.add_run(sched, run_sw.seconds());

                const auto& result = r.run->result();
                push_error(errors, check_golden(opt, key,
                                                golden_value(r.run->iteration(),
                                                             widths_of(*r.design), result)));
                s.gain_pct = gain_pct(result);
                if (traced) {
                    layers.hwm_run_mb = proc_status_mb("VmHWM:");
                    layers.add_result(result);
                    ++layers.units;
                }
            } catch (const std::exception& e) {
                errors.push_back(w.name + ": " + e.what());
                r = {};
            }
            last = sched.ending();
            if (traced && last && r.run) {
                try {
                    (void)traced_extras(r, w.circuit, kMcSamples, trace, layers);
                } catch (const std::exception& e) {
                    errors.push_back(w.name + ": " + e.what());
                }
            }
        }  // the run and its design are released here
        if (traced) layers.rss_end_mb = proc_status_mb("VmRSS:");
        book(out, errors);
        if (last) break;
    }

    finish(out, opt, s, trace, peak_rss_mb(), nullptr, 0.0);
    out.notes.push_back("steps per repetition " + std::to_string(scenario.max_iterations));
    return out;
}

// ---- multi-process dispatch workload --------------------------------------

std::string report_json(const api::DispatchReport& report) {
    std::ostringstream s;
    api::write_dispatch_json(s, report);
    return s.str();
}

/// The in-process reference of a dispatch: each scenario sized stepwise
/// through SizingRun and validated exactly as a `statim serve` worker
/// does, assembled into a DispatchReport. Traced, it also supplies the
/// layer numbers the workers' runs hide from this process.
api::DispatchReport reference_report(const Workload& w, Trace& trace,
                                     LayerStats& layers) {
    const Scope root(trace, "reference");
    api::DispatchReport report;
    for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
        const api::Scenario& scenario = w.scenarios[i];
        SizedRun r = set_up_run(w.circuit, scenario, trace);
        if (i == 0) {
            report.design = r.design->name();
            report.gates = r.design->gate_count();
            for (std::size_t g = 0; g < report.gates; ++g)
                report.gate_names.push_back(
                    r.design->gate_name(statim::GateId(static_cast<std::uint32_t>(g))));
        }
        step_all(*r.run, trace, &layers);
        layers.add_result(r.run->result());

        api::DispatchOutcome outcome;
        outcome.ok = true;
        outcome.scenario = scenario;
        outcome.widths = widths_of(*r.design);
        outcome.sizing = r.run->result();
        // The last scenario also carries the checkpoint round trip; its
        // save precedes validation, which advances the run's RNG.
        const api::McSummary mc =
            i + 1 == w.scenarios.size()
                ? traced_extras(r, w.circuit, scenario.mc_samples, trace, layers)
                : validate(*r.run, scenario.mc_samples, trace, layers);
        outcome.mc = api::McDigest::of(mc);
        report.outcomes.push_back(std::move(outcome));
    }
    layers.units = 1;
    return report;
}

Outcome run_dispatch(const Workload& w, const RunOptions& opt, Trace& trace) {
    std::ostringstream set_text;
    api::write_scenario_set(set_text, w.scenarios);
    const std::string scenario_set = set_text.str();

    api::DesignSource source;
    source.kind = api::DesignSource::Kind::Registry;
    source.name = w.circuit;
    source.lib_path = "";
    api::DispatchOptions options;
    options.workers = w.workers;
    options.checkpoint_every = 1;
    options.heartbeat_timeout_ms = 60000;
    options.retries = 2;
    options.serve_command = {opt.serve_bin, "serve"};
    options.fault = api::FaultInjection{};

    Outcome out;
    Samples s;
    LayerStats& layers = s.layers;
    // Per repetition: its failures so far and its report digest (0 when
    // it produced no report); compared with the reference after the loop.
    std::vector<std::vector<std::string>> rep_errors;
    std::vector<std::uint64_t> digests;
    api::DispatchReport last_traced;
    double report_bytes = 0.0;

    // Set-up: Design load + scenario-set parse (what `statim dispatch`
    // does before it spawns workers).
    auto set_up = [&]() {
        const Stopwatch sw;
        {
            const Scope span(trace, "netlist.load");
            const api::Design design = api::Design::from_registry(w.circuit);
        }
        std::vector<api::Scenario> parsed;
        {
            const Scope span(trace, "api.scenario_parse");
            std::istringstream in(scenario_set);
            parsed = api::read_scenario_set(in);
        }
        s.setup_s.push_back(sw.seconds());
        return parsed;
    };
    for (int i = 0; i < kSetupOnlyReps; ++i) {
        trace.set_enabled(opt.trace);
        trace.set_run(-1 - i);
        const Scope root(trace, "setup");
        (void)set_up();
    }

    Schedule sched(opt.seconds, opt.trace);
    for (;; sched.advance()) {
        const bool traced = sched.traced();
        trace.set_enabled(traced);
        trace.set_run(sched.rep());
        std::vector<std::string>& errors = rep_errors.emplace_back();
        std::uint64_t& digest = digests.emplace_back(0);
        try {
            const Scope root(trace, "rep");
            const std::vector<api::Scenario> scenarios = set_up();
            if (traced) layers.rss_setup_mb.push_back(proc_status_mb("VmRSS:"));
            const Stopwatch run_sw;
            api::DispatchReport report;
            {
                const Scope span(trace, "dist.dispatch");
                report = api::dispatch_scenarios(source, scenarios, options);
            }
            s.add_run(sched, run_sw.seconds());
            if (traced) layers.hwm_run_mb = proc_status_mb("VmHWM:");

            if (!report.complete) errors.push_back(w.name + ": incomplete dispatch report");
            double gains = 0.0;
            for (const auto& o : report.outcomes) {
                if (!o.ok)
                    errors.push_back(o.scenario.name + ": " + o.error);
                else if (o.migrations != 0)
                    errors.push_back(o.scenario.name + ": migrated " +
                                     std::to_string(o.migrations) + " time(s)");
                else
                    push_error(errors,
                               check_golden(opt, w.name + "/" + o.scenario.name + "@" + mode(opt),
                                            golden_value(o.sizing.iterations, o.widths, o.sizing)));
                gains += gain_pct(o.sizing);
            }
            s.gain_pct = gains / static_cast<double>(std::max<std::size_t>(report.outcomes.size(), 1));
            const std::string json = report_json(report);
            digest = fnv_bytes(json);
            if (traced) {
                report_bytes = static_cast<double>(json.size());
                last_traced = std::move(report);
            }
        } catch (const std::exception& e) {
            errors.push_back(w.name + ": " + e.what());
        }
        if (traced) layers.rss_end_mb = proc_status_mb("VmRSS:");
        if (sched.ending()) break;
    }
    // Read before the in-process reference adds its own footprint.
    const double peak_mb = peak_rss_mb();

    // Every repetition's report must be byte-identical to the in-process
    // reference for this seed. Building the reference is an operation of
    // its own.
    trace.set_enabled(opt.trace);
    trace.set_run(sched.rep() + 1);
    std::vector<std::string> ref_errors;
    try {
        const std::uint64_t ref = fnv_bytes(report_json(reference_report(w, trace, layers)));
        for (std::size_t i = 0; i < digests.size(); ++i)
            if (rep_errors[i].empty() && digests[i] != ref)
                rep_errors[i].push_back(w.name + ": repetition " + std::to_string(i) +
                                        " report differs from the in-process reference");
    } catch (const std::exception& e) {
        ref_errors.push_back(w.name + ": reference: " + e.what());
    }
    for (const auto& errors : rep_errors) book(out, errors);
    book(out, ref_errors);

    finish(out, opt, s, trace, peak_mb, &last_traced, report_bytes);
    return out;
}

}  // namespace

std::size_t Workload::cores() const {
    std::size_t threads = 1;
    for (const api::Scenario& s : scenarios) threads = std::max(threads, s.threads);
    return threads * static_cast<std::size_t>(std::max(workers, 1));
}

std::vector<Workload> all_workloads(std::uint64_t seed, bool smoke) {
    using Obj = api::Scenario::Objective;
    using Sel = api::Scenario::Selector;
    const auto iters = [smoke](int full) { return smoke ? 1 : full; };
    std::vector<Workload> w;
    w.push_back({"c7552-pruned-t4", "c7552",
                 {make_scenario("c7552-pruned-t4", Obj::Percentile, 0.99, Sel::Pruned, 1, 4,
                                iters(8), 0, seed)},
                 0});
    w.push_back({"c3540-k4-t1", "c3540",
                 {make_scenario("c3540-k4-t1", Obj::Percentile, 0.99, Sel::Pruned, 4, 1,
                                iters(2), 0, seed)},
                 0});
    w.push_back({"c3540-brute-t4", "c3540",
                 {make_scenario("c3540-brute-t4", Obj::Percentile, 0.99, Sel::BruteForce, 1,
                                4, iters(4), 0, seed)},
                 0});
    w.push_back({"c1908-dispatch-w2", "c1908",
                 {make_scenario("p99-k1", Obj::Percentile, 0.99, Sel::Pruned, 1, 1, iters(8),
                                kMcSamples, seed),
                  make_scenario("p95-k2", Obj::Percentile, 0.95, Sel::Pruned, 2, 1, iters(5),
                                kMcSamples, seed),
                  make_scenario("mean-k4", Obj::Mean, 0.99, Sel::Pruned, 4, 1, iters(3),
                                kMcSamples, seed),
                  make_scenario("p99-k4", Obj::Percentile, 0.99, Sel::Pruned, 4, 1, iters(3),
                                kMcSamples, seed)},
                 2});
    return w;
}

Golden load_golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    Golden g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos) continue;
        g[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return g;
}

Outcome run_workload(const Workload& w, const RunOptions& opt, Trace& trace) {
    return w.dispatch() ? run_dispatch(w, opt, trace) : run_size(w, opt, trace);
}

}  // namespace perfbench
