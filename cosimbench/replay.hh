/**
 * @file
 * Spans and the traced layer-replay loop.
 *
 * The simulator has no spans of its own yet, so the traced run drives
 * each point through replayPoint(): the same public calls, in the
 * same order, that CoSimulator::runImpl makes (gpu -> power -> P->I
 * conversion + circuit -> control -> DFS/PG/hypervisor), each layer
 * call inside a span.  The traced run refuses to report numbers
 * unless the replay reproduces CoSimulator::run bit for bit on every
 * point.  Once the cosim loop is split into stage objects with spans
 * of their own, this replay should be deleted.
 */

#ifndef COSIMBENCH_REPLAY_HH
#define COSIMBENCH_REPLAY_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cosimbench/points.hh"

namespace cosimbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layers timed per simulated cycle. */
enum Layer : int
{
    LayerGpu,
    LayerPower,
    LayerCircuit,
    LayerControl,
    LayerHypervisor,
    numLayers,
};

/** @return the layer's name (its src/ module). */
const char *layerName(int layer);

constexpr int kHistBuckets = 40;

/** In-memory aggregate of one layer's per-cycle spans in one point:
 *  sum, count and a log2 histogram of raw span durations. */
struct LayerAgg
{
    std::uint64_t sumNs = 0;
    std::uint64_t count = 0;
    std::array<std::uint64_t, kHistBuckets> hist{};

    void add(std::int64_t ns);
    void merge(const LayerAgg &o);
};

/** A span kept whole (task, point set-up, launch, electrical set-up). */
struct Span
{
    std::string name;
    int id = 0;
    int parent = -1;
    int point = -1;
    int thread = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Thread-safe in-memory store of whole spans. */
class SpanLog
{
  public:
    /** Open a span now on the calling thread; @return its id. */
    int open(const std::string &name, int parent, int point);

    /** Close span @p id now. */
    void close(int id);

    /** @return every span recorded so far, in id order. */
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, int> threads_;
};

/** Per-point output of one replay. */
struct PointTrace
{
    std::array<LayerAgg, numLayers> layers{};
    std::uint64_t smSteps = 0; ///< clocked SM steps (all SMs)
};

/**
 * Run @p p through the layer-replay loop.  @p cfg must carry the
 * shared electrical setup.  Per-cycle layer spans go to @p trace;
 * the per-point set-up and kernel launch are whole spans in @p log
 * under @p parentSpan.
 */
CosimResult replayPoint(const Point &p, const CosimConfig &cfg,
                        PointTrace &trace, SpanLog &log,
                        int parentSpan, int pointIdx);

} // namespace cosimbench

#endif // COSIMBENCH_REPLAY_HH
