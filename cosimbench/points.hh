/**
 * @file
 * The benchmark's workloads: named lists of co-simulation points,
 * the untraced way to run one point, and the checks applied to every
 * simulated result.
 *
 * A workload is built from a seed.  Seed 0 selects each benchmark's
 * published benchmarkSeed(), which makes the points identical to the
 * ones the fig14_penalty_saving and fig17_imbalance scenarios run at
 * scale 1; any other seed reseeds every instruction stream.  The
 * simulator only ever receives the generated WorkloadSpecs.
 */

#ifndef COSIMBENCH_POINTS_HH
#define COSIMBENCH_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hypervisor/dfs.hh"
#include "hypervisor/pg.hh"
#include "hypervisor/vs_hypervisor.hh"
#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace cosimbench
{

using namespace vsgpu;

/** Power management attached to a point (the Fig. 17 groups). */
enum class Pm
{
    None,
    Dfs,
    Pg,
};

/** One co-simulation: a configuration plus its generated workload. */
struct Point
{
    std::string label;
    CosimConfig cfg;
    WorkloadSpec spec;
    Pm pm = Pm::None;
    double dfsTarget = 1.0;
};

/** A named point list and the pool width it runs on. */
struct Workload
{
    std::string name;
    int threads = 1;
    std::uint64_t sweepSeed = 0;
    std::vector<Point> points;
};

/** @return the names makeWorkload() accepts, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build the named workload's points for @p seed (configurations and
 * workload specs only; the electrical setup is attached later through
 * exec::SetupCache).  Panics on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The governors a point attaches to its CoSimulator, constructed
 * fresh per point exactly as the fig17_imbalance scenario does.
 * Holds pointers into itself, so it is neither copied nor moved.
 */
struct Governors
{
    explicit Governors(const Point &p);
    Governors(const Governors &) = delete;
    Governors &operator=(const Governors &) = delete;

    DfsGovernor dfsGov;
    PgGovernor pgGov;
    VsAwareHypervisor hvGov;
    DfsGovernor *dfs = nullptr;
    PgGovernor *pg = nullptr;
    VsAwareHypervisor *hv = nullptr;
};

/** Run one point through CoSimulator::run (cfg carries the setup). */
CosimResult runPoint(const Point &p, const CosimConfig &cfg);

/**
 * Check the invariants every point must hold at any seed: finite
 * results, a run that finished or stopped exactly at its cycle cap,
 * and energy components that add up to the wall energy.
 * @return an empty string when they hold, else the first violation.
 */
std::string checkInvariants(const Point &p, const CosimResult &r);

/**
 * @return true when two results of the same point are bit-identical
 * in every simulated quantity (counters, energies, voltages, rates,
 * imbalance bins, per-SM noise boxes).
 */
bool sameSimulation(const CosimResult &a, const CosimResult &b);

/** A figure headline computed from a workload's results. */
struct Headline
{
    std::string name;
    double value = 0.0;
    std::string paper; ///< the paper's stated band or value
};

/** @return the scenario headline numbers for a workload's results. */
std::vector<Headline> headlines(const Workload &w,
                                const std::vector<CosimResult> &results);

} // namespace cosimbench

#endif // COSIMBENCH_POINTS_HH
