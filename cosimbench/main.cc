/**
 * @file
 * cosimbench: end-to-end benchmark of the voltage-stacking
 * co-simulator (GPU -> power -> PDN circuit -> smoothing controller
 * -> PM hypervisor, once per simulated clock).
 *
 *   cosimbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--trace-out FILE]
 *
 * --trace 0 (default) times the workload with tracing off and prints
 * the end-to-end metrics; --trace 1 runs the per-layer pass instead
 * (see replay.hh).  Both end with one "RESULT {json}" line, which
 * run.py checks against reference.json and turns into the
 * benchmark's result line.  Every co-simulation starts from the DC
 * operating point with empty modelled caches.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cosimbench/points.hh"
#include "cosimbench/replay.hh"
#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "exec/sweep.hh"
#include "obs/profile.hh"
#include "sim/pds_setup.hh"

namespace cosimbench
{

namespace
{

/** Set-ups before the timed region; one more follows every pass, and
 *  setup_s is the median of all of them. */
constexpr int kSetupReps = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cosimbench: " << why
              << "\nusage: cosimbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload") {
                o.workload = val;
            } else if (key == "--seed") {
                std::size_t used = 0;
                o.seed = std::stoull(val, &used);
                if (used != val.size())
                    usage("bad --seed " + val);
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                o.trace = val == "1";
            } else if (key == "--trace-out") {
                o.traceOut = val;
            } else {
                usage("unknown flag " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) ==
        names.end())
        usage("unknown --workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(hostNowNs() - startNs) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Build the workload and every distinct electrical setup it needs
 * into @p cache.  @return host seconds taken.
 */
double
setUp(const Options &o, Workload &w, exec::SetupCache &cache)
{
    const std::int64_t t0 = hostNowNs();
    w = makeWorkload(o.workload, o.seed);
    for (const Point &p : w.points)
        cache.setupFor(p.cfg);
    return secondsSince(t0);
}

/** One pass over every point of a workload on the pool. */
struct Pass
{
    std::vector<CosimResult> results;
    std::vector<PointTrace> traces; ///< replay passes only
    double wallS = 0.0;
    std::int64_t startNs = 0;
};

enum class PassKind
{
    Cosim,  ///< CoSimulator::run
    Replay, ///< replayPoint() with per-layer spans
};

/** Run every point once; task spans go to @p log when non-null. */
Pass
runPass(exec::Pool &pool, const Workload &w, exec::SetupCache &cache,
        PassKind kind, SpanLog *log)
{
    Pass pass;
    if (kind == PassKind::Replay)
        pass.traces.resize(w.points.size());
    const char *taskName =
        kind == PassKind::Replay ? "task.replay" : "task.cosim";
    pass.startNs = hostNowNs();
    pass.results = exec::runSweep(
        pool, w.points, w.sweepSeed,
        [&](const Point &p, exec::TaskContext &ctx) {
            const int span =
                log ? log->open(taskName, -1, ctx.index) : -1;
            const CosimConfig cfg = cache.withSetup(p.cfg);
            CosimResult r =
                kind == PassKind::Replay
                    ? replayPoint(p, cfg,
                                  pass.traces[static_cast<std::size_t>(
                                      ctx.index)],
                                  *log, span, ctx.index)
                    : runPoint(p, cfg);
            if (log)
                log->close(span);
            return r;
        });
    pass.wallS = secondsSince(pass.startNs);
    return pass;
}

std::uint64_t
totalCycles(const std::vector<CosimResult> &rs)
{
    std::uint64_t n = 0;
    for (const CosimResult &r : rs)
        n += r.cycles;
    return n;
}

/** Name, value and unit of one reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
hexBits(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  std::bit_cast<std::uint64_t>(v));
    return buf;
}

/** Print the RESULT line run.py consumes. */
void
printResult(const Options &o, const Workload &w,
            const std::vector<CosimResult> &results,
            std::uint64_t attempted, std::uint64_t failed,
            int iterations, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(w.name)
       << ", \"seed\": " << o.seed << ", \"trace\": " << o.trace
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"iterations\": " << iterations << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}, \"headlines\": {";
    const auto heads = headlines(w, results);
    for (std::size_t i = 0; i < heads.size(); ++i) {
        os << (i ? ", " : "") << jsonString(heads[i].name)
           << ": {\"value\": " << jsonNumber(heads[i].value)
           << ", \"paper\": " << jsonString(heads[i].paper) << "}";
    }
    // The exact simulated counters of every point, for the reference
    // check at the default seed.
    os << "}, \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CosimResult &r = results[i];
        os << (i ? ", " : "") << "{\"label\": "
           << jsonString(w.points[i].label)
           << ", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"throttled_cycles\": " << r.counters.throttledCycles
           << ", \"lu_builds\": " << r.counters.luFactorizations
           << ", \"min_rail_bits\": \"" << hexBits(r.minVoltage)
           << "\", \"wall_energy_bits\": \"" << hexBits(r.energy.wall)
           << "\"}";
    }
    os << "]}";
    std::cout << "RESULT " << os.str() << std::endl;
}

/**
 * Check every point of one pass: invariants at any seed, and bit
 * equality with @p first (the run's first pass) when given.
 * @return the number of failed points.
 */
std::uint64_t
checkPass(const Workload &w, const std::vector<CosimResult> &results,
          const std::vector<CosimResult> *first)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::string why = checkInvariants(w.points[i], results[i]);
        if (why.empty() && first && !sameSimulation(results[i], (*first)[i]))
            why = "differs from the first pass of this run";
        if (!why.empty()) {
            ++failed;
            std::cout << "FAIL " << w.points[i].label << ": " << why
                      << "\n";
        }
    }
    return failed;
}

/** Simulated-model metrics over all points (exact, deterministic). */
void
addSimulatedMetrics(const std::vector<CosimResult> &results,
                    std::vector<Metric> &m)
{
    double instrs = 0.0, cycles = 0.0, load = 0.0, wall = 0.0;
    double minRail = results.front().minVoltage;
    for (const CosimResult &r : results) {
        instrs += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
        load += r.energy.load;
        wall += r.energy.wall;
        minRail = std::min(minRail, r.minVoltage);
    }
    m.push_back({"sim_ipc", instrs / cycles, "instr/cycle"});
    m.push_back({"sim_pde", load / wall, "fraction"});
    m.push_back({"sim_min_rail_v", minRail, "V"});
}

void
printHeader(const Options &o, const Workload &w)
{
    std::cout << "cosimbench: workload " << w.name << ", seed " << o.seed
              << (o.seed == 0 ? " (published benchmark seeds)" : "")
              << ", " << w.points.size() << " point(s) on "
              << w.threads << " thread(s); every co-simulation starts "
                 "from the DC operating point with empty modelled "
                 "caches\n";
}

// ------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ------------------------------------------------------------------

int
runEndToEnd(const Options &o)
{
    Workload w;
    std::unique_ptr<exec::SetupCache> cache;
    std::vector<double> setupTimes;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        cache = std::make_unique<exec::SetupCache>();
        setupTimes.push_back(setUp(o, w, *cache));
    }
    printHeader(o, w);
    exec::Pool pool(w.threads);

    // Timed region: whole passes until the next one would overrun
    // the window (always at least one).  sim_cycles_per_s is all
    // simulated cycles over all pass time.  Under host contention the
    // per-pass rates are bimodal, and this time-weighted figure
    // repeats across runs better than their median does.
    std::vector<double> rates;
    std::vector<double> passSeconds;
    std::vector<CosimResult> first;
    std::uint64_t attempted = 0, failed = 0;
    double simCycles = 0.0, timedS = 0.0;
    const std::int64_t start = hostNowNs();
    do {
        Pass pass = runPass(pool, w, *cache, PassKind::Cosim, nullptr);
        attempted += pass.results.size();
        failed += checkPass(w, pass.results, first.empty() ? nullptr
                                                           : &first);
        const auto cycles =
            static_cast<double>(totalCycles(pass.results));
        simCycles += cycles;
        timedS += pass.wallS;
        rates.push_back(cycles / pass.wallS);
        passSeconds.push_back(pass.wallS);
        if (first.empty())
            first = std::move(pass.results);
        // Set up again between passes, so that setup_s samples the
        // host over the whole run rather than one moment of it.
        Workload again;
        exec::SetupCache againCache;
        setupTimes.push_back(setUp(o, again, againCache));
    } while (secondsSince(start) + median(passSeconds) <= o.seconds);

    std::sort(rates.begin(), rates.end());
    std::cout << "  " << rates.size() << " pass(es) of "
              << totalCycles(first) << " simulated cycles in " << timedS
              << " s; per-pass cycles/s min " << rates.front()
              << ", median " << median(rates) << ", max "
              << rates.back() << "\n";
    std::cout << "  failed points: " << failed << " of " << attempted
              << " (failed_frac "
              << static_cast<double>(failed) /
                     static_cast<double>(attempted)
              << ")\n";

    std::vector<Metric> m;
    m.push_back({"sim_cycles_per_s", simCycles / timedS, "cycles/s"});
    m.push_back({"setup_s", median(setupTimes), "s"});
    m.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
    addSimulatedMetrics(first, m);
    printResult(o, w, first, attempted, failed,
                static_cast<int>(rates.size()), m);
    return 0;
}

// ------------------------------------------------------------------
// --trace 1: per-layer metrics.
// ------------------------------------------------------------------

/** Mean recorded duration of an empty span (what each span adds). */
double
calibrateSpanNs()
{
    std::vector<double> means;
    for (int rep = 0; rep < 9; ++rep) {
        LayerAgg agg;
        for (int i = 0; i < 20000; ++i) {
            const std::int64_t t0 = hostNowNs();
            agg.add(hostNowNs() - t0);
        }
        means.push_back(static_cast<double>(agg.sumNs) /
                        static_cast<double>(agg.count));
    }
    return median(means);
}

/** Fixed reference kernel (64x64 dense matrix product); median ns. */
double
hostRefNs()
{
    constexpr int n = 64;
    std::vector<double> a(n * n), b(n * n), c(n * n);
    for (int i = 0; i < n * n; ++i) {
        a[static_cast<std::size_t>(i)] = 1.0 + (i % 7) * 0.125;
        b[static_cast<std::size_t>(i)] = 2.0 - (i % 5) * 0.25;
    }
    std::vector<double> times;
    volatile double sink = 0.0;
    for (int rep = 0; rep < 31; ++rep) {
        const std::int64_t t0 = hostNowNs();
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                double s = 0.0;
                for (int k = 0; k < n; ++k)
                    s += a[static_cast<std::size_t>(i * n + k)] *
                         b[static_cast<std::size_t>(k * n + j)];
                c[static_cast<std::size_t>(i * n + j)] = s;
            }
        }
        times.push_back(static_cast<double>(hostNowNs() - t0));
        sink = sink + c[static_cast<std::size_t>(rep)];
    }
    return median(times);
}

/** Mean duration (ms) of the named whole spans. */
double
meanSpanMs(const std::vector<Span> &spans, const std::string &name,
           int *count = nullptr)
{
    double sum = 0.0;
    int n = 0;
    for (const Span &s : spans) {
        if (s.name == name) {
            sum += static_cast<double>(s.endNs - s.startNs);
            ++n;
        }
    }
    if (count)
        *count = n;
    return n ? sum / n * 1e-6 : 0.0;
}

/** Task statistics of one pass from its task spans. */
struct TaskStats
{
    double taskS = 0.0; ///< summed task durations
    double tailS = 0.0; ///< first idle worker -> last task end
};

TaskStats
taskStats(const std::vector<Span> &spans, const std::string &name,
          const Pass &pass, int threads)
{
    TaskStats t;
    std::map<int, std::int64_t> lastEnd;
    std::int64_t end = pass.startNs;
    for (const Span &s : spans) {
        if (s.name != name)
            continue;
        t.taskS += static_cast<double>(s.endNs - s.startNs) * 1e-9;
        lastEnd[s.thread] = std::max(lastEnd[s.thread], s.endNs);
        end = std::max(end, s.endNs);
    }
    std::int64_t firstIdle = end;
    for (const auto &[thread, e] : lastEnd)
        firstIdle = std::min(firstIdle, e);
    if (static_cast<int>(lastEnd.size()) < threads)
        firstIdle = pass.startNs; // a worker never got a task
    t.tailS = static_cast<double>(end - firstIdle) * 1e-9;
    return t;
}

void
writeTrace(const std::string &path, const Workload &w, double spanNs,
           const std::vector<Span> &spans, const Pass &replay)
{
    std::ofstream f(path);
    if (!f) {
        std::cerr << "cosimbench: cannot write " << path << "\n";
        std::exit(1);
    }
    f << "{\"workload\": " << jsonString(w.name)
      << ", \"span_ns\": " << jsonNumber(spanNs) << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        f << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
          << ", \"name\": " << jsonString(s.name)
          << ", \"parent\": " << s.parent << ", \"point\": " << s.point
          << ", \"thread\": " << s.thread
          << ", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs << "}";
    }
    f << "],\n \"layers\": [";
    for (std::size_t i = 0; i < replay.traces.size(); ++i) {
        f << (i ? ",\n  " : "\n  ") << "{\"point\": "
          << jsonString(w.points[i].label)
          << ", \"sm_steps\": " << replay.traces[i].smSteps;
        for (int l = 0; l < numLayers; ++l) {
            const LayerAgg &a =
                replay.traces[i].layers[static_cast<std::size_t>(l)];
            f << ", " << jsonString(layerName(l))
              << ": {\"sum_ns\": " << a.sumNs
              << ", \"count\": " << a.count << ", \"log2_hist\": [";
            for (int b = 0; b < kHistBuckets; ++b)
                f << (b ? ", " : "") << a.hist[static_cast<std::size_t>(b)];
            f << "]}";
        }
        f << "}";
    }
    f << "]}\n";
}

int
runTraced(const Options &o)
{
    const double spanNs = calibrateSpanNs();
    const double refNs = hostRefNs();

    Workload w = makeWorkload(o.workload, o.seed);
    printHeader(o, w);
    exec::SetupCache cache;
    SpanLog log;
    std::set<std::string> keys;
    for (const Point &p : w.points) {
        if (!keys.insert(pdsSetupKey(p.cfg)).second)
            continue;
        const int span = log.open("circuit.setup", -1, -1);
        cache.setupFor(p.cfg);
        log.close(span);
    }
    exec::Pool pool(w.threads);

    const Pass plain = runPass(pool, w, cache, PassKind::Cosim, &log);
    const int cacheHits = cache.setupHits();
    const int cacheBuilds = cache.setupsBuilt();
    const Pass replay = runPass(pool, w, cache, PassKind::Replay, &log);
    obs::setProfiling(true);
    const Pass profiled = runPass(pool, w, cache, PassKind::Cosim, nullptr);
    obs::setProfiling(false);

    // Replay fidelity: the traced loop must be the same program.
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (!sameSimulation(plain.results[i], replay.results[i]) ||
            !sameSimulation(plain.results[i], profiled.results[i])) {
            std::cerr << "cosimbench: a traced or profiled pass of "
                      << w.points[i].label
                      << " differs from CoSimulator::run; no per-layer "
                         "numbers reported\n";
            return 3;
        }
    }
    const std::uint64_t failed = checkPass(w, plain.results, nullptr);

    const std::vector<Span> spans = log.spans();
    if (!o.traceOut.empty())
        writeTrace(o.traceOut, w, spanNs, spans, replay);

    // Per-layer self time, calibrated by the empty-span cost.
    std::array<LayerAgg, numLayers> agg{};
    std::uint64_t smSteps = 0;
    for (const PointTrace &t : replay.traces) {
        for (int l = 0; l < numLayers; ++l)
            agg[static_cast<std::size_t>(l)].merge(
                t.layers[static_cast<std::size_t>(l)]);
        smSteps += t.smSteps;
    }
    const auto selfNs = [&](int l) {
        const LayerAgg &a = agg[static_cast<std::size_t>(l)];
        return std::max(0.0, static_cast<double>(a.sumNs) -
                                 spanNs * static_cast<double>(a.count));
    };
    const auto perCall = [&](int l) {
        const auto n = agg[static_cast<std::size_t>(l)].count;
        return n ? selfNs(l) / static_cast<double>(n) : 0.0;
    };

    CosimCounters c;
    for (const CosimResult &r : plain.results)
        c.add(r.counters);
    const double cycles = static_cast<double>(c.cycles);
    const auto frac = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    double layerSumNs = 0.0;
    for (int l = 0; l < numLayers; ++l)
        layerSumNs += selfNs(l);

    const TaskStats plainTasks =
        taskStats(spans, "task.cosim", plain, w.threads);
    const TaskStats replayTasks =
        taskStats(spans, "task.replay", replay, w.threads);
    int setups = 0;
    const double setupMs = meanSpanMs(spans, "circuit.setup", &setups);
    int points = 0;
    const double runSetupMs = meanSpanMs(spans, "sim.run_setup", &points);
    const double launchMs = meanSpanMs(spans, "gpu.launch");

    std::uint64_t nnz = 0;
    keys.clear();
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (keys.insert(pdsSetupKey(w.points[i].cfg)).second)
            nnz += plain.results[i].counters.sparseNnz;
    }

    std::vector<Metric> m;
    m.push_back({"gpu.step_ns_per_cycle", selfNs(LayerGpu) / cycles, "ns"});
    m.push_back({"gpu.ns_per_sm_step",
                 selfNs(LayerGpu) / static_cast<double>(smSteps), "ns"});
    m.push_back({"gpu.launch_ms", launchMs, "ms"});
    m.push_back({"gpu.sm_steps_per_cycle",
                 static_cast<double>(smSteps) / cycles, "steps/cycle"});
    m.push_back({"gpu.instructions", static_cast<double>(c.instructions),
                 "count"});
    m.push_back({"gpu.mem_accesses", static_cast<double>(c.memAccesses),
                 "count"});
    m.push_back({"gpu.l1_hit_frac", frac(c.l1Hits, c.memAccesses),
                 "fraction"});
    m.push_back({"gpu.throttled_frac",
                 frac(c.throttledCycles, c.cycles * config::numSMs),
                 "fraction"});
    m.push_back({"gpu.gate_events", static_cast<double>(c.gateEvents),
                 "count"});
    m.push_back({"power.ns_per_cycle", selfNs(LayerPower) / cycles, "ns"});
    m.push_back({"circuit.step_ns", perCall(LayerCircuit), "ns"});
    m.push_back({"circuit.setup_ms", setupMs, "ms"});
    m.push_back({"circuit.lu_builds",
                 static_cast<double>(c.luFactorizations), "count"});
    m.push_back({"circuit.refactorizations",
                 static_cast<double>(c.sparseRefactorizations), "count"});
    m.push_back({"circuit.nnz", static_cast<double>(nnz), "count"});
    m.push_back({"control.step_ns", perCall(LayerControl), "ns"});
    m.push_back({"control.trigger_frac",
                 frac(c.ctlTriggered, c.ctlDecisions), "fraction"});
    m.push_back({"control.diws_engagements",
                 static_cast<double>(c.diwsEngagements), "count"});
    m.push_back({"hypervisor.ns_per_cycle",
                 selfNs(LayerHypervisor) / cycles, "ns"});
    m.push_back({"hypervisor.dfs_transitions",
                 static_cast<double>(c.dfsTransitions), "count"});
    m.push_back({"hypervisor.gating_denials",
                 static_cast<double>(c.hvGatingDenials), "count"});
    m.push_back({"hypervisor.freq_remaps",
                 static_cast<double>(c.hvFreqRemaps), "count"});
    m.push_back({"sim.run_setup_ms", runSetupMs, "ms"});
    const double plainNsPerCycle = plainTasks.taskS * 1e9 / cycles;
    m.push_back({"sim.other_ns_per_cycle",
                 plainNsPerCycle - layerSumNs / cycles, "ns"});
    m.push_back({"exec.busy_frac",
                 plainTasks.taskS / (w.threads * plain.wallS), "fraction"});
    m.push_back({"exec.tail_s", plainTasks.tailS, "s"});
    m.push_back({"exec.setup_cache_hits", static_cast<double>(cacheHits),
                 "count"});
    m.push_back({"exec.setup_cache_builds",
                 static_cast<double>(cacheBuilds), "count"});
    m.push_back({"trace.span_ns", spanNs, "ns"});
    m.push_back({"trace.overhead_frac",
                 (replay.wallS - plain.wallS) / plain.wallS, "fraction"});
    m.push_back({"host.ref_ns", refNs, "ns"});

    // Profiler cross-check: the built-in stage profiler's shares of
    // the loop beside the replay's.  "other" is everything outside
    // the five layer calls (observe and bookkeeping in the profiler).
    obs::Profile prof;
    for (const CosimResult &r : profiled.results)
        prof.merge(*r.profile);
    const int stageOf[numLayers] = {obs::StageGpu, obs::StagePower,
                                    obs::StageCircuit, obs::StageControl,
                                    obs::StageHypervisor};
    double profLoop = 0.0;
    for (int s = obs::StageGpu; s < obs::firstProfileSubStage; ++s)
        profLoop +=
            static_cast<double>(prof.stages[static_cast<std::size_t>(s)].ns);
    const double replayLoopNs = replayTasks.taskS * 1e9 -
                          (runSetupMs + launchMs) * 1e6 * points;
    std::cout << "  layer        ns/cycle  replay share  profiler share"
                 "  diff\n";
    double profOther = 1.0, replayOther = 1.0;
    const auto row = [&](const std::string &name, double nsPerCycle,
                         double replayShare, double profShare) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "  %-11s %9.1f  %11.1f%%  %13.1f%%  %+5.1f\n",
                      name.c_str(), nsPerCycle, replayShare * 100.0,
                      profShare * 100.0,
                      (replayShare - profShare) * 100.0);
        std::cout << buf;
        m.push_back({"xcheck." + name + ".replay_share", replayShare,
                     "fraction"});
        m.push_back({"xcheck." + name + ".profile_share", profShare,
                     "fraction"});
        m.push_back({"xcheck." + name + ".share_diff",
                     replayShare - profShare, "fraction"});
    };
    for (int l = 0; l < numLayers; ++l) {
        const double replayShare = selfNs(l) / replayLoopNs;
        const double profShare =
            static_cast<double>(
                prof.stages[static_cast<std::size_t>(stageOf[l])].ns) /
            profLoop;
        replayOther -= replayShare;
        profOther -= profShare;
        row(layerName(l), selfNs(l) / cycles, replayShare, profShare);
    }
    row("other", replayOther * replayLoopNs / cycles, replayOther,
        profOther);
    std::cout << "  untraced " << plainNsPerCycle
              << " ns/cycle; tracing overhead "
              << (replay.wallS - plain.wallS) / plain.wallS * 100.0
              << "%; " << setups << " electrical setup(s)\n";

    printResult(o, w, plain.results, plain.results.size(), failed, 1, m);
    return 0;
}

} // namespace

} // namespace cosimbench

int
main(int argc, char **argv)
{
    const cosimbench::Options o = cosimbench::parseArgs(argc, argv);
    return o.trace ? cosimbench::runTraced(o)
                   : cosimbench::runEndToEnd(o);
}
