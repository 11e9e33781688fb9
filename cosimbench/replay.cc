#include "cosimbench/replay.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "circuit/transient.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "control/controller.hh"
#include "ivr/efficiency.hh"
#include "pdn/single_layer.hh"
#include "pdn/vs_pdn.hh"
#include "power/power_model.hh"
#include "sim/model_verify.hh"
#include "sim/pds_setup.hh"
#include "workloads/generator.hh"

namespace cosimbench
{

const char *
layerName(int layer)
{
    static const char *const names[numLayers] = {
        "gpu", "power", "circuit", "control", "hypervisor"};
    return names[layer];
}

void
LayerAgg::add(std::int64_t ns)
{
    const auto u = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    sumNs += u;
    ++count;
    const int bucket =
        std::min(kHistBuckets - 1, static_cast<int>(std::bit_width(u)));
    ++hist[static_cast<std::size_t>(bucket)];
}

void
LayerAgg::merge(const LayerAgg &o)
{
    sumNs += o.sumNs;
    count += o.count;
    for (std::size_t b = 0; b < hist.size(); ++b)
        hist[b] += o.hist[b];
}

int
SpanLog::open(const std::string &name, int parent, int point)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.point = point;
    s.thread = threads_
                   .emplace(std::this_thread::get_id(),
                            static_cast<int>(threads_.size()))
                   .first->second;
    s.startNs = hostNowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(int id)
{
    const std::int64_t now = hostNowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).endNs = now;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace
{

/** Clamp a measured rail voltage used in the P -> I conversion. */
double
usableVolts(double v)
{
    return std::clamp(v, 0.35, 1.6);
}

/** Run one layer call inside a per-cycle span. */
template <typename Fn>
inline void
timed(LayerAgg &agg, Fn &&fn)
{
    const std::int64_t t0 = hostNowNs();
    fn();
    agg.add(hostNowNs() - t0);
}

} // namespace

// Mirrors CoSimulator::runImpl for one kernel with every optional
// observability path (trace, time series, wave, flight recorder,
// profiler) off.  Any edit to runImpl's arithmetic or call order must
// be repeated here; the traced run's fidelity check catches a miss.
CosimResult
replayPoint(const Point &p, const CosimConfig &cfg, PointTrace &trace,
            SpanLog &log, int parentSpan, int pointIdx)
{
    const bool stacked = isVoltageStacked(cfg.pds.kind);
    const bool smoothing = cfg.pds.kind == PdsKind::VsCrossLayer &&
                           cfg.pds.smoothingEnabled;
    panicIfNot(cfg.setup && cfg.setup->key == pdsSetupKey(cfg),
               "replay needs the shared setup of its configuration");
    Governors gov(p);
    const WorkloadFactory factory(p.spec);
    auto &layer = trace.layers;

    // --- per-point set-up: device, PDS state, controller ---
    const int setupSpan = log.open("sim.run_setup", parentSpan, pointIdx);
    Gpu gpu(cfg.gpu);
    const SmPowerModel powerModel(cfg.energy);
    const double peakSmPower = powerModel.peakPower().raw();
    const PdsSetup &setup = *cfg.setup;
    const VsPdn *vsPdn = setup.vs.get();
    const SingleLayerPdn *slPdn = setup.sl.get();
    TransientSim tr(setup.netlist(), config::clockPeriod.raw(),
                    defaultSolver(), setup.mnaPattern);
    const std::vector<int> &loadResistors =
        stacked ? vsPdn->loadResistorIndices()
                : slPdn->loadResistorIndices();
    tr.initFromDc(setup.dcNodeVolts);
    std::unique_ptr<SmoothingController> controller;
    if (smoothing) {
        if (cfg.verifyModel) {
            const verify::Report report = verifyControlModel(cfg);
            panicIfNot(!report.hasErrors(),
                       "control-model verification failed:\n",
                       verify::formatReport(report));
        }
        controller =
            std::make_unique<SmoothingController>(cfg.pds.controller);
    }
    log.close(setupSpan);

    const auto railVolts = [&](int sm) {
        return (stacked ? vsPdn->smVoltage(tr, sm)
                        : slPdn->smVoltage(tr, sm))
            .raw();
    };
    const auto smSource = [&](int sm) {
        return stacked ? vsPdn->smCurrentSource(sm)
                       : slPdn->smCurrentSource(sm);
    };

    const VrmModel vrm;
    const SingleIvrModel singleIvr;
    const VsOverheads overheads;
    const CrIvrTech ivrTech = cfg.pds.ivrTech;

    CosimResult result;
    const double dt = config::clockPeriod.raw();
    std::array<ReservoirSampler, config::numSMs> noise{};
    RunningStats pooledVolts;
    double minVoltage = 1e9;
    Histogram imbalance({0.0, 0.10, 0.20, 0.40, 10.0});
    std::array<double, config::numSMs> windowPower{};
    int windowFill = 0;

    const Netlist &net = stacked ? vsPdn->netlist() : slPdn->netlist();
    const double loadOhms =
        loadResistors.empty()
            ? cfg.pdn.smLoadOhms().raw()
            : net.resistors()[static_cast<std::size_t>(
                                  loadResistors.front())]
                  .ohms;
    std::array<double, config::numSMs> dccAmps{};
    std::array<double, config::numSMs> smPower{};
    std::array<double, config::numSMs> sourceAmps{};
    std::array<const SmCycleEvents *, config::numSMs> events{};

    std::array<double, config::numSMs> vSlow{};
    const double nominalRail =
        (stacked ? vsPdn->nominalLayerVolts() : config::smVoltage)
            .raw();
    vSlow.fill(nominalRail);
    const double vSlowBeta = 0.01;
    double vrmSetVolts =
        stacked ? 0.0 : slPdn->options().supplyVolts.raw();
    Cycle lastHvUpdate = 0;
    std::uint64_t lastThrottled = 0;

    const Cycle gateLayerAt =
        cfg.gateLayerAtSec >= Seconds{}
            ? static_cast<Cycle>(cfg.gateLayerAtSec.raw() / dt)
            : std::numeric_limits<Cycle>::max();

    gpu.memory().setL1HitRate(p.spec.l1HitRate);
    const int launchSpan = log.open("gpu.launch", parentSpan, pointIdx);
    gpu.launch(factory);
    log.close(launchSpan);

    while (!gpu.done() && gpu.cycle() < cfg.maxCycles) {
        const Cycle now = gpu.cycle();

        // 1. GPU timing step.
        timed(layer[LayerGpu], [&] { gpu.step(); });

        // 2. Per-SM power from the event trace.
        timed(layer[LayerPower], [&] {
            for (int sm = 0; sm < config::numSMs; ++sm) {
                const auto idx = static_cast<std::size_t>(sm);
                events[idx] = &gpu.smEvents(sm);
                smPower[idx] = powerModel
                                   .cyclePower(*events[idx],
                                               gpu.sm(sm), now)
                                   .raw();
            }
        });
        double totalLoadPower = 0.0;
        double fakePower = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto idx = static_cast<std::size_t>(sm);
            if (now >= gateLayerAt &&
                VsPdn::smLayer(sm) == cfg.gatedLayer) {
                smPower[idx] = cfg.gatedLayerWatts.raw();
            }
            totalLoadPower += smPower[idx];
            fakePower += static_cast<double>(events[idx]->fakeIssued) *
                         cfg.energy.fakeEnergy.raw() / dt;
        }

        // 3. P -> I conversion (glue), then the circuit step.
        double electricalLoadWatts = 0.0;
        double dccDrawnWatts = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto idx = static_cast<std::size_t>(sm);
            const double rail = railVolts(sm);
            vSlow[idx] += vSlowBeta * (rail - vSlow[idx]);
            const double v = usableVolts(vSlow[idx]);
            const double knee = 0.6 * config::smVoltage.raw();
            const double foldback = std::clamp(v / knee, 0.0, 1.0);
            const double loadAmps =
                smPower[idx] / nominalRail * foldback - v / loadOhms;
            sourceAmps[idx] = loadAmps + dccAmps[idx];
            electricalLoadWatts += rail * (loadAmps + rail / loadOhms);
            dccDrawnWatts += rail * dccAmps[idx];
        }
        timed(layer[LayerCircuit], [&] {
            for (int sm = 0; sm < config::numSMs; ++sm)
                tr.setCurrent(smSource(sm),
                              sourceAmps[static_cast<std::size_t>(sm)]);
            tr.step();
        });

        // 3b. Remote-sense load-line regulation.
        if (!stacked && cfg.vrmRemoteSense) {
            double railAvg = 0.0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                railAvg += vSlow[static_cast<std::size_t>(sm)];
            railAvg /= static_cast<double>(config::numSMs);
            vrmSetVolts += cfg.remoteSenseGain *
                           (config::smVoltage.raw() - railAvg);
            vrmSetVolts = std::clamp(vrmSetVolts, 0.95, 1.15);
            tr.setSourceVolts(slPdn->supplySource(), vrmSetVolts);
        }

        // 4. Noise statistics and the non-finite rail guard.
        double cycleMin = 1e9;
        double railSum = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const double v = railVolts(sm);
            railSum += v;
            noise[static_cast<std::size_t>(sm)].add(v);
            pooledVolts.add(v);
            cycleMin = std::min(cycleMin, v);
        }
        panicIfNot(std::isfinite(railSum),
                   "PDS solve produced a non-finite rail voltage at "
                   "cycle ", now);
        minVoltage = std::min(minVoltage, cycleMin);

        // 5. Imbalance histogram over an averaging window.
        for (int sm = 0; sm < config::numSMs; ++sm)
            windowPower[static_cast<std::size_t>(sm)] +=
                smPower[static_cast<std::size_t>(sm)];
        if (++windowFill >= cfg.imbalanceWindow) {
            const double norm =
                static_cast<double>(cfg.imbalanceWindow) * peakSmPower;
            for (int c = 0; c < config::smsPerLayer; ++c) {
                for (int l = 0; l + 1 < config::numLayers; ++l) {
                    const double a = windowPower[static_cast<
                        std::size_t>(VsPdn::smAt(l, c))];
                    const double b = windowPower[static_cast<
                        std::size_t>(VsPdn::smAt(l + 1, c))];
                    imbalance.add(std::abs(a - b) / norm);
                }
            }
            windowPower.fill(0.0);
            windowFill = 0;
        }

        // 6. Voltage-smoothing control loop.
        if (controller) {
            std::array<double, config::numSMs> volts{};
            for (int sm = 0; sm < config::numSMs; ++sm)
                volts[static_cast<std::size_t>(sm)] = railVolts(sm);
            const CommandSet *commands = nullptr;
            timed(layer[LayerControl],
                  [&] { commands = &controller->step(volts); });
            for (int sm = 0; sm < config::numSMs; ++sm) {
                const auto idx = static_cast<std::size_t>(sm);
                gpu.sm(sm).setIssueWidthLimit((*commands)[idx].issueWidth);
                gpu.sm(sm).setFakeInjectRate((*commands)[idx].fakeRate);
                dccAmps[idx] = (*commands)[idx].dccAmps.raw();
            }
        }

        // 7. Higher-level power management.
        if (gov.dfs) {
            timed(layer[LayerHypervisor], [&] { gov.dfs->step(gpu); });
            auto request = gov.dfs->requested();
            if (gov.hv && stacked) {
                timed(layer[LayerHypervisor], [&] {
                    request = gov.hv->filterFrequencies(request);
                });
            }
            for (int sm = 0; sm < config::numSMs; ++sm)
                gpu.setSmFrequencyFraction(
                    sm, request[static_cast<std::size_t>(sm)] /
                            config::smClockHz);
        }
        if (gov.pg) {
            if (gov.hv && stacked && now - lastHvUpdate >= 512) {
                lastHvUpdate = now;
                GatingPlan wish{};
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto kind = static_cast<ExecUnitKind>(u);
                        const auto &unit = gpu.sm(sm).unit(kind);
                        wish[static_cast<std::size_t>(sm)]
                            [static_cast<std::size_t>(u)] =
                            unit.gated(now) ||
                            unit.idleCycles(now) >=
                                gov.pg->config().idleDetect;
                    }
                }
                GatingPlan plan{};
                timed(layer[LayerHypervisor], [&] {
                    plan = gov.hv->filterGating(wish,
                                                cfg.energy.unitLeakage);
                });
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto kind = static_cast<ExecUnitKind>(u);
                        const bool wanted =
                            wish[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        const bool allowed =
                            plan[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        gov.pg->setVeto(sm, kind, wanted && !allowed);
                        auto &unit = gpu.sm(sm).unit(kind);
                        if (wanted && !allowed && unit.gated(now) &&
                            unit.gateRequested()) {
                            unit.ungate(now, cfg.gpu.sm.pgWakeLatency);
                        }
                    }
                }
            }
            timed(layer[LayerHypervisor], [&] { gov.pg->step(gpu, now); });
        }
        if (gov.hv && stacked && (now & 0xfff) == 0 && now > 0) {
            std::uint64_t throttled = 0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                throttled += gpu.sm(sm).throttledCycles();
            const double rate =
                static_cast<double>(throttled - lastThrottled) /
                (4096.0 * config::numSMs);
            lastThrottled = throttled;
            timed(layer[LayerHypervisor], [&] {
                gov.hv->feedback(std::clamp(rate, 0.0, 1.0));
            });
        }

        // 8. Energy bookkeeping.
        result.energy.load += electricalLoadWatts * dt;
        result.energy.fake += fakePower * dt;
        double loadResWatts = 0.0;
        for (int i : loadResistors) {
            const double amps = tr.resistorCurrent(i);
            loadResWatts +=
                amps * amps *
                net.resistors()[static_cast<std::size_t>(i)].ohms;
        }
        const double pdnWatts =
            std::max(0.0, tr.totalResistivePower() +
                              tr.totalSwitchPower() - loadResWatts);

        double overheadWatts = 0.0;
        double crIvrWatts = 0.0;
        double wallWatts = 0.0;
        double conversionWatts = 0.0;
        if (stacked) {
            const double eqWatts = tr.totalEqualizerPower();
            double transferWatts = 0.0;
            const int numEq =
                static_cast<int>(vsPdn->equalizerIndices().size());
            for (int e = 0; e < numEq; ++e)
                transferWatts += std::abs(tr.equalizerCurrent(e)) *
                                 config::smVoltage.raw();
            double layerPower[config::numLayers] = {};
            for (int sm = 0; sm < config::numSMs; ++sm)
                layerPower[VsPdn::smLayer(sm)] +=
                    smPower[static_cast<std::size_t>(sm)];
            const double avgLayer =
                totalLoadPower / static_cast<double>(config::numLayers);
            double shuffleWatts = 0.0;
            for (double lp : layerPower)
                shuffleWatts += std::abs(lp - avgLayer);
            crIvrWatts = eqWatts +
                         ivrTech.switchingLossFraction * transferWatts +
                         (1.0 - ivrTech.shuffleEfficiency) * shuffleWatts;
            overheadWatts +=
                overheads.levelShifterFraction * totalLoadPower;
            if (controller) {
                overheadWatts += overheads.controllerPower.raw() +
                                 controller->detectorPower().raw();
                overheadWatts +=
                    cfg.pds.controller.dcc.leakageWatts.raw() *
                    static_cast<double>(config::numSMs);
            }
            overheadWatts += dccDrawnWatts;
            const double sourceWatts = tr.totalSourcePower();
            wallWatts = sourceWatts + crIvrWatts -
                        tr.totalEqualizerPower() + overheadWatts;
        } else if (cfg.pds.kind == PdsKind::ConventionalVrm) {
            const double chipWatts = tr.totalSourcePower();
            wallWatts = vrm.inputPower(Watts{chipWatts}).raw();
            conversionWatts = wallWatts - chipWatts;
        } else {
            const double chipWatts = tr.totalSourcePower();
            const double ivrInWatts =
                singleIvr.inputPower(Watts{chipWatts}).raw();
            conversionWatts = ivrInWatts - chipWatts;
            const double boardAmps =
                ivrInWatts / singleIvr.inputVolts().raw();
            const double boardLossWatts =
                boardAmps * boardAmps *
                (cfg.pdn.boardR + cfg.pdn.packageR).raw();
            wallWatts = ivrInWatts + boardLossWatts;
            conversionWatts += boardLossWatts;
        }
        result.energy.pdn += pdnWatts * dt;
        result.energy.conversion += conversionWatts * dt;
        result.energy.crIvr += crIvrWatts * dt;
        result.energy.overhead += overheadWatts * dt;
        result.energy.wall += wallWatts * dt;
    }

    // --- results, as CoSimulator::runImpl assembles them ---
    result.cycles = gpu.cycle();
    result.finished = gpu.done();
    std::uint64_t instructions = 0;
    std::uint64_t throttled = 0;
    for (int sm = 0; sm < config::numSMs; ++sm) {
        instructions += gpu.sm(sm).retired();
        throttled += gpu.sm(sm).throttledCycles();
        result.smNoise[static_cast<std::size_t>(sm)] =
            noise[static_cast<std::size_t>(sm)].box();
        trace.smSteps += gpu.sm(sm).cyclesRun();
    }
    result.instructions = instructions;
    result.minVoltage = minVoltage;
    result.meanVoltage = pooledVolts.mean();
    result.throttleRate =
        result.cycles > 0
            ? static_cast<double>(throttled) /
                  (static_cast<double>(result.cycles) * config::numSMs)
            : 0.0;
    if (controller && controller->totalDecisions() > 0) {
        result.triggerRate =
            static_cast<double>(controller->triggeredDecisions()) /
            static_cast<double>(controller->totalDecisions());
    }
    for (std::size_t b = 0; b < 4; ++b)
        result.imbalanceBins[b] = imbalance.fraction(b);

    CosimCounters &ctr = result.counters;
    ctr.cycles = result.cycles;
    ctr.instructions = instructions;
    ctr.throttledCycles = throttled;
    ctr.kernelLaunches = 1;
    for (int sm = 0; sm < config::numSMs; ++sm) {
        ctr.fakeInstructions += gpu.sm(sm).fakeIssuedTotal();
        for (std::uint64_t n : gpu.sm(sm).stats().gateEvents)
            ctr.gateEvents += n;
    }
    ctr.memAccesses = gpu.memory().accesses();
    ctr.l1Hits = gpu.memory().l1Hits();
    ctr.l2Hits = gpu.memory().l2Hits();
    ctr.dramAccesses = gpu.memory().dramAccesses();
    ctr.timesteps = tr.steps();
    ctr.luFactorizations = tr.luBuilds();
    ctr.sparseNnz = tr.patternNnz();
    ctr.sparseSymbolicReuses = tr.usedCachedPattern() ? 1 : 0;
    ctr.sparseRefactorizations = tr.refactorizations();
    if (controller) {
        ctr.ctlDecisions = controller->totalDecisions();
        ctr.ctlTriggered = controller->triggeredDecisions();
        ctr.detectorTrips = controller->detectorTrips();
        ctr.diwsEngagements = controller->diwsEngagements();
        ctr.fiiEngagements = controller->fiiEngagements();
        ctr.dccEngagements = controller->dccEngagements();
    }
    if (gov.dfs)
        ctr.dfsTransitions = gov.dfs->transitions();
    if (gov.pg) {
        ctr.pgGateRequests = gov.pg->gateRequests();
        ctr.pgVetoSkips = gov.pg->vetoSkips();
    }
    if (gov.hv) {
        ctr.hvFreqRemaps = gov.hv->freqRemaps();
        ctr.hvGatingDenials = gov.hv->gatingDenials();
    }
    return result;
}

} // namespace cosimbench
