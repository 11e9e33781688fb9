#include "cosimbench/points.hh"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace cosimbench
{

namespace
{

// Sizes of the scenarios the sweeps reproduce (bench/scenarios at
// scale 1): 700 instructions per warp, Fig. 14 capped at 250k
// cycles and Fig. 17 at 200k.
constexpr int kSweepInstrs = 700;
constexpr Cycle kFig14MaxCycles = 250000;
constexpr Cycle kFig17MaxCycles = 200000;

// cosim-long: ~52k cycles, long enough that per-point set-up is
// <0.1% of the run, short enough for dozens of runs per measurement
// window, so the median rides out bursts of host contention.  The cap
// only guards against a runaway seed; hotspot finishes far below it.
constexpr int kLongInstrs = 2000;
constexpr Cycle kLongMaxCycles = 2000000;

constexpr double kDfsTargets[] = {0.7, 0.5, 0.2};

// Relative tolerance of the energy balance load + losses = wall.  It
// does not close exactly: load is booked at the pre-step rail voltage
// and the PDN's stored reactive energy is not booked.  The residual is
// about 0.6% on the conventional VRM and 0.2% on VS (test_cosim allows
// 5%).
constexpr double kEnergyBalanceTol = 0.01;

std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

WorkloadSpec
specFor(Benchmark b, std::uint64_t seed, int instrs)
{
    const std::uint64_t base = benchmarkSeed(b);
    const std::uint64_t s =
        seed == 0 ? base : splitmix64(base ^ splitmix64(seed));
    return scaledToInstrs(workloadFor(b, s), instrs);
}

Point
vsPoint(Benchmark b, std::uint64_t seed, int instrs, Cycle maxCycles)
{
    Point p;
    p.cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    p.cfg.maxCycles = maxCycles;
    p.spec = specFor(b, seed, instrs);
    return p;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameBox(const BoxStats &a, const BoxStats &b)
{
    return sameBits(a.min, b.min) && sameBits(a.q1, b.q1) &&
           sameBits(a.median, b.median) && sameBits(a.q3, b.q3) &&
           sameBits(a.max, b.max) && sameBits(a.mean, b.mean) &&
           a.count == b.count;
}

constexpr std::uint64_t CosimCounters::*kCounterFields[] = {
    &CosimCounters::cycles,
    &CosimCounters::instructions,
    &CosimCounters::fakeInstructions,
    &CosimCounters::throttledCycles,
    &CosimCounters::kernelLaunches,
    &CosimCounters::memAccesses,
    &CosimCounters::l1Hits,
    &CosimCounters::l2Hits,
    &CosimCounters::dramAccesses,
    &CosimCounters::timesteps,
    &CosimCounters::luFactorizations,
    &CosimCounters::sparseNnz,
    &CosimCounters::sparseSymbolicReuses,
    &CosimCounters::sparseRefactorizations,
    &CosimCounters::ctlDecisions,
    &CosimCounters::ctlTriggered,
    &CosimCounters::detectorTrips,
    &CosimCounters::diwsEngagements,
    &CosimCounters::fiiEngagements,
    &CosimCounters::dccEngagements,
    &CosimCounters::dfsTransitions,
    &CosimCounters::pgGateRequests,
    &CosimCounters::pgVetoSkips,
    &CosimCounters::gateEvents,
    &CosimCounters::hvFreqRemaps,
    &CosimCounters::hvGatingDenials,
};

constexpr double EnergyBreakdown::*kEnergyFields[] = {
    &EnergyBreakdown::load,       &EnergyBreakdown::fake,
    &EnergyBreakdown::pdn,        &EnergyBreakdown::conversion,
    &EnergyBreakdown::crIvr,      &EnergyBreakdown::overhead,
    &EnergyBreakdown::wall,
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cosim-long", "sweep-fig14", "sweep-pm"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "cosim-long") {
        w.threads = 1;
        Point p = vsPoint(Benchmark::Hotspot, seed, kLongInstrs,
                          kLongMaxCycles);
        p.label = "hotspot/vs";
        w.points.push_back(std::move(p));
    } else if (name == "sweep-fig14") {
        // Point order and sweep seed of the fig14_penalty_saving
        // scenario: per benchmark, conventional VRM then VS.
        w.threads = 4;
        w.sweepSeed = 14;
        for (Benchmark b : allBenchmarks()) {
            Point conv = vsPoint(b, seed, kSweepInstrs,
                                 kFig14MaxCycles);
            conv.cfg.pds = defaultPds(PdsKind::ConventionalVrm);
            conv.label = std::string(benchmarkName(b)) + "/conv";
            w.points.push_back(std::move(conv));
            Point vs = vsPoint(b, seed, kSweepInstrs,
                               kFig14MaxCycles);
            vs.label = std::string(benchmarkName(b)) + "/vs";
            w.points.push_back(std::move(vs));
        }
    } else if (name == "sweep-pm") {
        // Groups of the fig17_imbalance scenario: no PM, DFS per
        // target, PG with the GATES scheduler.
        w.threads = 4;
        w.sweepSeed = 17;
        const auto addGroup = [&](Pm pm, double target,
                                  const std::string &tag) {
            for (Benchmark b : allBenchmarks()) {
                Point p = vsPoint(b, seed, kSweepInstrs,
                                  kFig17MaxCycles);
                p.pm = pm;
                p.dfsTarget = target;
                if (pm == Pm::Pg)
                    p.cfg.gpu.sm.scheduler = SchedulerKind::Gates;
                p.label = tag + "/" + benchmarkName(b);
                w.points.push_back(std::move(p));
            }
        };
        addGroup(Pm::None, 1.0, "none");
        for (double t : kDfsTargets) {
            std::ostringstream tag;
            tag << "dfs" << t;
            addGroup(Pm::Dfs, t, tag.str());
        }
        addGroup(Pm::Pg, 1.0, "pg");
    } else {
        panic("unknown workload '", name, "'");
    }
    return w;
}

Governors::Governors(const Point &p)
    : dfsGov([&p] {
          DfsConfig c;
          c.perfTarget = p.dfsTarget;
          return c;
      }())
{
    if (p.pm == Pm::Dfs)
        dfs = &dfsGov;
    if (p.pm == Pm::Pg)
        pg = &pgGov;
    if (p.pm != Pm::None)
        hv = &hvGov;
}

CosimResult
runPoint(const Point &p, const CosimConfig &cfg)
{
    Governors gov(p);
    CoSimulator sim(cfg);
    sim.attachDfs(gov.dfs);
    sim.attachPg(gov.pg);
    sim.attachHypervisor(gov.hv);
    return sim.run(p.spec);
}

std::string
checkInvariants(const Point &p, const CosimResult &r)
{
    const EnergyBreakdown &e = r.energy;
    for (double EnergyBreakdown::*f : kEnergyFields) {
        if (!std::isfinite(e.*f))
            return "non-finite energy";
    }
    if (!std::isfinite(r.minVoltage) || !std::isfinite(r.meanVoltage))
        return "non-finite rail voltage";
    if (r.cycles == 0 || r.instructions == 0)
        return "empty run";
    if (!r.finished && r.cycles != p.cfg.maxCycles)
        return "stopped before its cycle cap without finishing";
    // `fake` is part of `load`; every other component is disjoint.
    const double parts =
        e.load + e.pdn + e.conversion + e.crIvr + e.overhead;
    if (!(std::abs(parts - e.wall) <= kEnergyBalanceTol * e.wall)) {
        std::ostringstream os;
        os << "energy components sum to " << parts << " J, wall "
           << e.wall << " J";
        return os.str();
    }
    return {};
}

bool
sameSimulation(const CosimResult &a, const CosimResult &b)
{
    if (a.cycles != b.cycles || a.instructions != b.instructions ||
        a.finished != b.finished)
        return false;
    for (std::uint64_t CosimCounters::*f : kCounterFields) {
        if (a.counters.*f != b.counters.*f)
            return false;
    }
    for (double EnergyBreakdown::*f : kEnergyFields) {
        if (!sameBits(a.energy.*f, b.energy.*f))
            return false;
    }
    if (!sameBits(a.minVoltage, b.minVoltage) ||
        !sameBits(a.meanVoltage, b.meanVoltage) ||
        !sameBits(a.throttleRate, b.throttleRate) ||
        !sameBits(a.triggerRate, b.triggerRate))
        return false;
    for (std::size_t i = 0; i < a.imbalanceBins.size(); ++i) {
        if (!sameBits(a.imbalanceBins[i], b.imbalanceBins[i]))
            return false;
    }
    for (std::size_t i = 0; i < a.smNoise.size(); ++i) {
        if (!sameBox(a.smNoise[i], b.smNoise[i]))
            return false;
    }
    return true;
}

std::vector<Headline>
headlines(const Workload &w, const std::vector<CosimResult> &results)
{
    std::vector<Headline> out;
    const std::size_t nb = allBenchmarks().size();
    if (w.name == "sweep-fig14") {
        // Same arithmetic as the fig14_penalty_saving scenario.
        double penalty = 0.0, saving = 0.0;
        for (std::size_t i = 0; i < nb; ++i) {
            const CosimResult &rb = results[2 * i];
            const CosimResult &rt = results[2 * i + 1];
            penalty += (static_cast<double>(rt.cycles) /
                            static_cast<double>(rb.cycles) -
                        1.0) *
                       100.0;
            saving += (1.0 - rt.energy.wall / rb.energy.wall) * 100.0;
        }
        out.push_back({"mean_penalty_pct",
                       penalty / static_cast<double>(nb), "2-4 %"});
        out.push_back({"mean_saving_pct",
                       saving / static_cast<double>(nb), "10-15 %"});
    } else if (w.name == "sweep-pm") {
        // Same arithmetic as the fig17_imbalance scenario: per group
        // the suite-average share of windows in each imbalance bin.
        const auto groupAvg = [&](std::size_t group) {
            std::array<double, 4> acc{};
            for (std::size_t j = 0; j < nb; ++j) {
                const auto &bins =
                    results[group * nb + j].imbalanceBins;
                for (std::size_t i = 0; i < 4; ++i)
                    acc[i] += bins[i];
            }
            for (double &v : acc)
                v /= static_cast<double>(nb);
            return acc;
        };
        const auto none = groupAvg(0);
        out.push_back({"nopm_avg_bin0", none[0], "~0.50"});
        out.push_back({"nopm_under40_frac", none[0] + none[1] + none[2],
                       "~0.93"});
        for (std::size_t t = 0; t < std::size(kDfsTargets); ++t) {
            std::ostringstream name;
            name << "dfs_" << kDfsTargets[t] << "_avg_bin0";
            out.push_back({name.str(), groupAvg(1 + t)[0],
                           "balance not disturbed"});
        }
        out.push_back({"pg_avg_bin0",
                       groupAvg(1 + std::size(kDfsTargets))[0],
                       "balance not disturbed"});
    }
    return out;
}

} // namespace cosimbench
