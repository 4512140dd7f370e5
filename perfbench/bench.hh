/**
 * @file
 * Shared vocabulary of the repository benchmark (perfbench/).
 *
 * The benchmark drives the simulator from outside: it calls each
 * layer's public functions and reads each layer's public accessors,
 * and adds no tracing inside src/. A *pass* is one complete run of a
 * workload — set-up, the simulated work, then the correctness checks —
 * and returns a PassResult. Untraced passes give the end-to-end
 * metrics; traced passes wrap every public call in a Span and attach
 * the program's own obs::TraceRecorder and obs::MetricsRegistry, and
 * give the per-layer metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Host wall clock, in seconds since an arbitrary epoch. */
inline double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** One timed call into a layer of the program. */
struct Span
{
    const char *name; ///< "<layer>.<call>", e.g. "core.setup"
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
};

/**
 * In-memory span recorder. Spans nest by call order; a span's self
 * time is its duration minus the time its direct children cover.
 */
class Spans
{
  public:
    /** Run @p fn inside a span named @p name; returns fn's result. */
    template <typename Fn>
    auto operator()(const char *name, Fn &&fn)
    {
        int id = open(name);
        struct Closer
        {
            Spans &s;
            int id;
            ~Closer() { s.close(id); }
        } closer{*this, id};
        return fn();
    }

    /** Self time summed per span name. */
    std::map<std::string, double> selfTimes() const;

    /** Write every span as one JSON line, tagged with @p pass. */
    void writeJsonLines(std::FILE *f, int pass) const;

  private:
    int open(const char *name);
    void close(int id);

    std::vector<Span> spans;
    int current = -1;
};

/**
 * Calls @p fn, inside a span when @p spans is non-null. The untraced
 * path is the plain call, so untraced passes pay nothing for spans.
 */
template <typename Fn>
auto
traced(Spans *spans, const char *name, Fn &&fn)
{
    if (spans)
        return (*spans)(name, std::forward<Fn>(fn));
    return fn();
}

/** FNV-1a digest of the simulated outputs of a pass. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void add(std::int64_t v) { add(std::uint64_t(v)); }
    void add(int v) { add(std::uint64_t(std::int64_t(v))); }
    void add(bool v) { add(std::uint64_t(v ? 1 : 0)); }
    void add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        add(std::uint64_t(s.size()));
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Simulated outputs of one pass, kept as samples so that perfbench can
 * pool them over a run's input sets before computing the end-to-end
 * metrics. Each is deterministic for a given input set.
 */
struct SimSamples
{
    /** Completion times (simulated seconds) of finished jobs/sessions. */
    std::vector<double> jct;
    /** Oracle time over the time the workload actually got, per
     *  configuration (sweep) or finished job (serving). */
    std::vector<double> perfVsOracle;
    /** Memory saved against the baseline, per configuration / job. */
    std::vector<double> memSaving;
    /** Compute-busy fraction, per session (sweep) or device (serving). */
    std::vector<double> computeUtil;
    int sloEligible = 0;
    int sloMet = 0;
    int trainable = 0;
    int trainableOf = 0;
    /** The paper anchors this workload's networks cover, in percent. */
    std::map<int, double> anchorPct;
};

/** What one pass of a workload produced. */
struct PassResult
{
    /** Digest of every simulated output (identical on every pass). */
    std::uint64_t digest = 0;

    // Host seconds of the phases.
    double setupS = 0.0; ///< until simulated time first advances
    double runS = 0.0;   ///< the simulated work, checks excluded
    double checkS = 0.0; ///< the benchmark's own correctness checks
    /** Isolated reference sessions the serving metrics normalize by
     *  (not part of runS, not traced). */
    double referenceS = 0.0;

    /** Simulated events executed during runS. */
    std::uint64_t events = 0;

    /** Operations attempted (jobs submitted / sessions run). */
    int attempted = 0;
    /** Attempted operations that failed (see the workload notes). */
    int failed = 0;
    /** Every correctness check passed. */
    bool correct = true;
    /** Check findings and explained failures, one line each. */
    std::vector<std::string> findings;

    SimSamples sim;
    /** Per-layer counts and simulated times (traced passes only). */
    std::map<std::string, double> layerCounts;
    /** Telemetry events the attached TraceRecorder captured. */
    std::uint64_t traceEvents = 0;
};

/** A workload: one pass over the input set @p inputSeed, traced when
 *  @p spans is non-null. */
using WorkloadFn = PassResult (*)(std::uint64_t inputSeed, Spans *spans);

PassResult runDesignSweep(std::uint64_t inputSeed, Spans *spans);
PassResult runPackedDense(std::uint64_t inputSeed, Spans *spans);
PassResult runPriorityChurn(std::uint64_t inputSeed, Spans *spans);

/**
 * Host seconds of a fixed calibration loop (about 25 ms). The CPUs of a
 * shared host drift in speed by 10-20% over tens of seconds, for the
 * simulator and the loop alike; host metrics divide each pass's time by
 * the mean of the loop's times just before and just after it on the
 * same CPU, and report it in seconds of a reference CPU on which the
 * loop takes kCalibrationRefS.
 */
double calibrationSeconds();

inline constexpr double kCalibrationRefS = 0.025;

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double percentile(std::vector<double> &v, double p);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
