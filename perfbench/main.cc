/**
 * @file
 * perfbench: the repository benchmark's program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *
 * A run covers a workload's input sets, drawn from --seed. It repeats
 * passes over them for --seconds of host time (and until every set has
 * run at least twice), on one thread moved round-robin over the CPUs it
 * may run on, so that every run samples all of them alike. Host times
 * are scaled by a calibration loop timed around each pass on the same
 * CPU (see calibrationSeconds()); a host metric is the interquartile
 * mean over sets of each set's median over CPUs of per-CPU median
 * passes, and peak memory is measured per pass. Every pass
 * over a set must reproduce the set's output digest. --trace 0 reports
 * the end-to-end metrics; --trace 1 interleaves untraced and traced
 * passes and reports the per-layer metrics and the tracing overhead,
 * and writes the traced passes' spans to --spans at the end. The last line of
 * standard output is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}.
 */

#include "sessions.hh"

#include "common/random.hh"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace
{

using namespace perfbench;
using vdnn::SplitMix64;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0); BENCHMARK.json lists the same. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"ok_frac", "frac"},
    {"sim_jct_p50_s", "sim_s"},
    {"sim_jct_p95_s", "sim_s"},
    {"slo_miss_frac", "frac"},
    {"compute_util", "frac"},
    {"perf_vs_oracle", "ratio"},
    {"mem_saving", "frac"},
    {"trainable_frac", "frac"},
    {"paper_gap_pct", "%"},
};

/** Host self time per span name, reported as "<span>_s". */
const char *const kSpanMetrics[] = {
    "net.build",    "core.setup", "core.iteration", "serve.generate",
    "serve.submit", "serve.run",  "check.verify",   "check.audit",
};

/** Per-layer counts and simulated times (--trace 1). */
const MetricDef kLayerCounts[] = {
    {"sim.events", "count"},
    {"gpu.kernels", "count"},
    {"gpu.arbiter_grants", "count"},
    {"gpu.dma_gib", "GiB"},
    {"gpu.compute_busy_s", "sim_s"},
    {"gpu.copy_busy_s", "sim_s"},
    {"mem.pool_peak_gib", "GiB"},
    {"mem.pool_avg_gib", "GiB"},
    {"mem.setup_ooms", "count"},
    {"core.trials", "count"},
    {"core.ops", "count"},
    {"core.offloads", "count"},
    {"core.prefetches", "count"},
    {"core.on_demand_fetches", "count"},
    {"core.stall_s", "sim_s"},
    {"core.preemptions", "count"},
    {"core.replans", "count"},
    {"core.migrations", "count"},
    {"core.page_outs", "count"},
    {"serve.wakeups", "count"},
    {"serve.fruitless_polls", "count"},
    {"serve.idle_advances", "count"},
    {"serve.fruitless_per_event", "ratio"},
    {"serve.admissions", "count"},
    {"serve.rejections", "count"},
    {"serve.lifecycle_events", "count"},
    {"serve.queue_p95_s", "sim_s"},
    {"serve.preempt_latency_p95_s", "sim_s"},
    {"check.audit_errors", "count"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<design_sweep|packed_dense|priority_churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            o.trace = std::strcmp(value, "0") == 0   ? 0
                      : std::strcmp(value, "1") == 0 ? 1
                                                      : -1;
            if (o.trace < 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.workload.empty() || o.seconds <= 0.0 || o.trace < 0)
        usage("--workload, --seconds and --trace are required");
    return o;
}

/**
 * A workload and the number of input sets one run covers. A run's sets
 * come from --seed (set i uses the i-th SplitMix64 draw of it), and the
 * simulated metrics pool every set, so a run's result does not hinge on
 * one draw of the traffic.
 */
struct Workload
{
    const char *name;
    WorkloadFn fn;
    int inputSets;
};

const Workload kWorkloads[] = {
    // The paper's fixed grid: the seed is ignored.
    {"design_sweep", runDesignSweep, 1},
    {"packed_dense", runPackedDense, 32},
    {"priority_churn", runPriorityChurn, 32},
};

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    usage(("unknown workload " + name).c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

/** Host-time samples, each tagged with the CPU the pass ran on. */
class HostSamples
{
  public:
    void add(int cpu, double v) { samples.push_back({cpu, v}); }

    /** Median over CPUs of each CPU's median sample. */
    double value() const
    {
        std::map<int, std::vector<double>> byCpu;
        for (const auto &[cpu, v] : samples)
            byCpu[cpu].push_back(v);
        std::vector<double> perCpu;
        for (const auto &[cpu, vs] : byCpu)
            perCpu.push_back(median(vs));
        return median(perCpu);
    }

  private:
    std::vector<std::pair<int, double>> samples;
};

/** CPUs this process may run on, in id order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Pin the calling thread to @p cpu; @return the CPU it runs on. */
int
pinTo(int cpu)
{
    if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
    }
    return sched_getcpu();
}

/**
 * Peak resident memory since the last resetPeakRss(), from VmHWM.
 * (getrusage's ru_maxrss also covers the parent's image from before
 * exec, so under a Python launcher it reads the launcher's size.)
 */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return double(kib) / 1024.0;
}

/**
 * Return free heap memory to the system and restart VmHWM from the
 * resident size that is left, so that each pass measures its own peak
 * rather than what earlier passes left behind. Without kernel support
 * the mark keeps rising, and a pass reads the peak of the run so far.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

void
printJsonMetric(bool &first, const std::string &name, double value,
                const char *unit)
{
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0, unit);
    first = false;
}

/** Everything a run records about one input set. */
struct InputSet
{
    std::uint64_t seed = 0;
    int untraced = 0;
    int traced = 0;
    /** First pass over the set: its digest and simulated samples. */
    PassResult first;
    bool haveFirst = false;
    PassResult firstTraced;
    HostSamples setupS, runS, eventsPerS, tracedRunS;
    /** Highest peak resident memory of an untraced pass (MiB). */
    double peakRssMiB = 0.0;
    std::map<std::string, std::vector<double>> spanSelf;
};

/**
 * Interquartile mean: the mean of the middle half of @p v. Over input
 * sets it resists the few sets whose cost or outcome is an outlier
 * (a retry storm, a failure cascade) like a median, with less sampling
 * spread than a median.
 */
double
interquartileMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t cut = v.size() / 4;
    return mean(std::vector<double>(v.begin() + long(cut),
                                    v.end() - long(cut)));
}

template <typename Get>
double
overSets(const std::vector<InputSet> &sets, Get get)
{
    std::vector<double> v;
    for (const InputSet &s : sets)
        v.push_back(get(s));
    return interquartileMean(v);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const Workload &workload = workloadByName(opt.workload);
    std::vector<int> cpus = allowedCpus();
    if (cpus.empty())
        cpus.push_back(-1);
    const int setCount = workload.inputSets;
    std::printf("perfbench: workload %s, seed %" PRIu64
                ", %.0f s, trace %d, %d input sets, %zu CPUs\n",
                opt.workload.c_str(), opt.seed, opt.seconds, opt.trace,
                setCount, cpus.size());

    std::vector<InputSet> sets(static_cast<std::size_t>(setCount));
    SplitMix64 seeds(opt.seed);
    for (InputSet &s : sets)
        s.seed = setCount == 1 ? opt.seed : seeds.next();

    bool correct = true;
    long long attempted = 0, failed = 0;
    /** Every traced pass's spans, written out when the run ends. */
    std::vector<std::pair<int, Spans>> tracedSpans;

    // Pass k covers set (slot % sets) on CPU (set + round) % CPUs, where
    // slot = k, or k / 2 with tracing: an untraced and a traced pass of
    // the same set run back to back on the same CPU.
    double start = hostNow();
    for (int k = 0;; ++k) {
        bool traceThis = opt.trace == 1 && k % 2 == 1;
        int slot = opt.trace == 1 ? k / 2 : k;
        int setIdx = slot % setCount;
        int round = slot / setCount;
        InputSet &set = sets[std::size_t(setIdx)];
        int cpu = pinTo(
            cpus[std::size_t(setIdx + round) % cpus.size()]);
        Spans spans;
        double calBefore = calibrationSeconds();
        resetPeakRss();
        PassResult r = workload.fn(set.seed, traceThis ? &spans : nullptr);
        double rss = peakRssMiB();
        double cal = 0.5 * (calBefore + calibrationSeconds());
        // Host times in reference-CPU seconds (see kCalibrationRefS).
        double scale = kCalibrationRefS / cal;
        std::printf("pass %d: set %d, cpu %d, %s, calibration %.6f s; raw "
                    "setup %.6f s, run %.6f s, check %.6f s, reference "
                    "%.6f s; %" PRIu64 " events, peak %.1f MiB, digest "
                    "%016" PRIx64 "\n",
                    k, setIdx, cpu, traceThis ? "traced" : "untraced", cal,
                    r.setupS, r.runS, r.checkS, r.referenceS, r.events, rss,
                    r.digest);
        if (traceThis) {
            if (set.traced++ == 0)
                set.firstTraced = r;
            set.tracedRunS.add(cpu, r.runS * scale);
            for (const auto &[name, self] : spans.selfTimes())
                set.spanSelf[name].push_back(self * scale);
            tracedSpans.emplace_back(k, std::move(spans));
        } else {
            ++set.untraced;
            set.setupS.add(cpu, r.setupS * scale);
            set.runS.add(cpu, r.runS * scale);
            set.eventsPerS.add(cpu, double(r.events) / (r.runS * scale));
            set.peakRssMiB = std::max(set.peakRssMiB, rss);
        }
        attempted += r.attempted;
        failed += r.failed;
        correct = correct && r.correct;
        if (!set.haveFirst) {
            set.first = std::move(r);
            set.haveFirst = true;
        } else if (r.digest != set.first.digest) {
            std::printf("DIGEST MISMATCH: pass %d over set %d gives "
                        "%016" PRIx64 ", its first pass gave %016" PRIx64
                        "\n",
                        k, setIdx, r.digest, set.first.digest);
            correct = false;
        }

        int minPasses = setCount == 1 ? (opt.trace == 1 ? 2 : 3)
                                      : (opt.trace == 1 ? 1 : 2);
        bool enough = true;
        for (const InputSet &s : sets) {
            enough = enough &&
                     (opt.trace == 1
                          ? s.untraced >= minPasses && s.traced >= minPasses
                          : s.untraced >= minPasses);
        }
        if (enough && hostNow() - start >= opt.seconds)
            break;
    }

    if (!opt.spansPath.empty() && !tracedSpans.empty()) {
        std::FILE *f = std::fopen(opt.spansPath.c_str(), "w");
        for (const auto &[pass, spans] : tracedSpans) {
            if (f)
                spans.writeJsonLines(f, pass);
        }
        if (!f || std::fclose(f) != 0) {
            std::printf("cannot write spans to %s\n", opt.spansPath.c_str());
            correct = false;
        }
    }

    // Failures are pooled over every set; the per-job quality metrics
    // are computed per set and aggregated with overSets' interquartile
    // mean, so one set's failure cascade moves ok_frac, not the JCT of
    // the jobs that did finish elsewhere.
    long long setAttempted = 0, setFailed = 0;
    int trainable = 0, trainableOf = 0;
    std::map<std::string, std::vector<double>> perSet;
    std::vector<double> jctP50, jctP95;
    for (const InputSet &s : sets) {
        for (const std::string &f : s.first.findings)
            std::printf("finding (set %016" PRIx64 "): %s\n", s.seed,
                        f.c_str());
        setAttempted += s.first.attempted;
        setFailed += s.first.failed;
        SimSamples x = s.first.sim;
        trainable += x.trainable;
        trainableOf += x.trainableOf;
        // A p95 needs at least ten samples beyond it.
        if (x.jct.size() >= 200) {
            jctP50.push_back(percentile(x.jct, 0.50));
            jctP95.push_back(percentile(x.jct, 0.95));
        } else {
            std::printf("set %016" PRIx64 ": %zu completions, too few "
                        "for a p95; left out of the JCT metrics\n",
                        s.seed, x.jct.size());
        }
        perSet["slo_miss_frac"].push_back(
            x.sloEligible > 0 ? 1.0 - double(x.sloMet) / x.sloEligible
                              : 0.0);
        perSet["compute_util"].push_back(mean(x.computeUtil));
        perSet["perf_vs_oracle"].push_back(geomean(x.perfVsOracle));
        perSet["mem_saving"].push_back(mean(x.memSaving));
        perSet["paper_gap_pct"].push_back(paperGapPct(x.anchorPct));
    }
    if (jctP50.empty()) {
        std::printf("no input set completed enough jobs for a p95\n");
        correct = false;
    }
    std::map<std::string, double> sim;
    for (const auto &[name, v] : perSet)
        sim[name] = interquartileMean(v);
    sim["sim_jct_p50_s"] = interquartileMean(jctP50);
    sim["sim_jct_p95_s"] = interquartileMean(jctP95);
    sim["ok_frac"] = 1.0 - double(setFailed) / double(setAttempted);
    sim["trainable_frac"] = double(trainable) / double(trainableOf);
    for (const auto &[name, v] : sim)
        std::printf("sim: %s = %.9g\n", name.c_str(), v);
    std::printf("sim: anchors (%%):");
    for (const auto &[anchor, pct] : sets.front().first.sim.anchorPct)
        std::printf(" %.2f (paper %.0f)", pct, anchorPaperPct(Anchor(anchor)));
    std::printf("\npasses over %d sets; attempted %lld, failed %lld; %s\n",
                setCount, attempted, failed,
                correct ? "outputs correct" : "OUTPUTS INCORRECT");

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool firstMetric = true;
    if (opt.trace == 0) {
        std::map<std::string, double> values = sim;
        values["setup_s"] = overSets(
            sets, [](const InputSet &s) { return s.setupS.value(); });
        values["run_s"] =
            overSets(sets, [](const InputSet &s) { return s.runS.value(); });
        values["events_per_s"] = overSets(
            sets, [](const InputSet &s) { return s.eventsPerS.value(); });
        values["peak_rss_mib"] =
            overSets(sets, [](const InputSet &s) { return s.peakRssMiB; });
        for (const MetricDef &m : kEndToEnd)
            printJsonMetric(firstMetric, m.name, values.at(m.name), m.unit);
    } else {
        for (const char *span : kSpanMetrics) {
            double v = overSets(sets, [&](const InputSet &s) {
                auto it = s.spanSelf.find(span);
                return it == s.spanSelf.end() ? 0.0 : median(it->second);
            });
            printJsonMetric(firstMetric, std::string(span) + "_s", v, "s");
        }
        for (const MetricDef &m : kLayerCounts) {
            double v = overSets(sets, [&](const InputSet &s) {
                auto it = s.firstTraced.layerCounts.find(m.name);
                return it == s.firstTraced.layerCounts.end() ? 0.0
                                                             : it->second;
            });
            printJsonMetric(firstMetric, m.name, v, m.unit);
        }
        double traceEvents = overSets(sets, [](const InputSet &s) {
            return double(s.firstTraced.traceEvents);
        });
        printJsonMetric(firstMetric, "obs.trace_events", traceEvents,
                        "count");
        double overhead = overSets(sets, [](const InputSet &s) {
            return 100.0 * (s.tracedRunS.value() / s.runS.value() - 1.0);
        });
        printJsonMetric(firstMetric, "obs.overhead_pct", overhead, "%");
    }
    std::printf("}}\n");
    return 0;
}
