/**
 * @file
 * design_sweep: the paper's design-space question — which network and
 * batch fits under which planner on which GPU, and at what cost.
 *
 * The Figs. 11/14 planner grid (vDNN_all and vDNN_conv with memory- and
 * performance-optimal algorithms, vDNN_dyn, and the two baselines) over
 * AlexNet, OverFeat, GoogLeNet and VGG-16 at batch 32/64/128/256 and
 * VGG-116/216/316/416 at batch 32, on the Titan X (Maxwell), Titan X
 * (Pascal) and Tesla K40: 420 isolated sessions of 2 iterations, plus
 * the oracle runs Fig. 14 normalizes against. The grid is fixed, so the
 * workload ignores the seed. Host time splits between Session::setup
 * (planning, vDNN_dyn trials, compilation) and runIteration; the serve
 * layer does no work here.
 */

#include "sessions.hh"

#include "check/plan_verifier.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "gpu/gpu_spec.hh"
#include "net/builders.hh"

#include <algorithm>
#include <memory>
#include <optional>

namespace perfbench
{

using namespace vdnn;

namespace
{

constexpr int kIterations = 2;

/**
 * The Figs. 11/12/14 planner grid in the paper's column order: all and
 * conv x (m)/(p), dyn, base x (m)/(p).
 */
std::vector<std::shared_ptr<core::Planner>>
plannerGrid()
{
    using core::AlgoPreference;
    auto all = [](AlgoPreference p) {
        return std::make_shared<core::OffloadAllPlanner>(p);
    };
    auto conv = [](AlgoPreference p) {
        return std::make_shared<core::OffloadConvPlanner>(p);
    };
    auto base = [](AlgoPreference p) {
        return std::make_shared<core::BaselinePlanner>(p);
    };
    return {
        all(AlgoPreference::MemoryOptimal),
        all(AlgoPreference::PerformanceOptimal),
        conv(AlgoPreference::MemoryOptimal),
        conv(AlgoPreference::PerformanceOptimal),
        std::make_shared<core::DynamicPlanner>(),
        base(AlgoPreference::MemoryOptimal),
        base(AlgoPreference::PerformanceOptimal),
    };
}

/** Grid columns the metrics read; the last column is base (p). */
constexpr std::size_t kOffloadAllMem = 0;
constexpr std::size_t kDynamic = 4;

struct NetCase
{
    std::string name;
    std::unique_ptr<net::Network> net;
    /** Memory anchor this network's Titan X row feeds, if any. */
    std::optional<Anchor> anchor;
    /** VGG-16 (256): its Titan X row feeds the performance anchor. */
    bool vgg16x256 = false;
};

std::vector<NetCase>
buildNetworks(Spans *spans)
{
    std::vector<NetCase> nets;
    auto add = [&](std::string name, auto build) {
        NetCase c;
        c.name = std::move(name);
        c.net = traced(spans, "net.build", build);
        nets.push_back(std::move(c));
    };
    for (std::int64_t batch : {32, 64, 128, 256}) {
        auto anchorAt128 = [&](Anchor a) {
            if (batch == 128)
                nets.back().anchor = a;
        };
        add(strFormat("AlexNet (%lld)", (long long)batch),
            [&] { return net::buildAlexNet(batch); });
        anchorAt128(Anchor::AlexNetSaving);
        add(strFormat("OverFeat (%lld)", (long long)batch),
            [&] { return net::buildOverFeat(batch); });
        anchorAt128(Anchor::OverFeatSaving);
        add(strFormat("GoogLeNet (%lld)", (long long)batch),
            [&] { return net::buildGoogLeNet(batch); });
        anchorAt128(Anchor::GoogLeNetSaving);
        add(strFormat("VGG-16 (%lld)", (long long)batch),
            [&] { return net::buildVgg16(batch); });
        nets.back().vgg16x256 = batch == 256;
    }
    for (int depth : {116, 216, 316, 416}) {
        add(strFormat("VGG-%d (32)", depth),
            [&] { return net::buildVggDeep(depth, 32); });
    }
    return nets;
}

/** All sessions of one (network, GPU) row of the grid. */
struct Row
{
    const NetCase *net = nullptr;
    gpu::GpuSpec gpu;
    std::vector<SessionRun> columns; ///< plannerGrid() order
    /** base (p), or the oracular base (p) when it cannot train. */
    SessionRun oracle;
    bool oracleRan = false;
};

void
digestSession(Digest &d, const SessionRun &s)
{
    const core::SessionResult &r = s.result;
    d.add(r.configName);
    d.add(r.trainable);
    d.add(r.iterationTime);
    d.add(r.featureExtractionTime);
    d.add(r.transferStallTime);
    d.add(r.maxTotalUsage);
    d.add(r.avgTotalUsage);
    d.add(r.maxManagedUsage);
    d.add(r.avgManagedUsage);
    d.add(r.pcieBytesPerIter);
    d.add(r.offloads);
    d.add(r.prefetches);
    d.add(r.onDemandFetches);
    d.add(int(r.trials.size()));
    d.add(s.simEnd);
    d.add(s.computeBusy);
    d.add(s.copyBusy);
    d.add(s.events);
}

} // namespace

PassResult
runDesignSweep(std::uint64_t /*seed: the grid is fixed*/, Spans *spans)
{
    PassResult out;
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    obs::Telemetry tele;
    if (spans)
        tele = {&trace, &metrics};

    // --- set-up: the inputs are the networks -----------------------------
    double t0 = hostNow();
    std::vector<NetCase> nets = buildNetworks(spans);
    const std::vector<std::shared_ptr<core::Planner>> grid = plannerGrid();
    const std::vector<gpu::GpuSpec> gpus = {
        gpu::titanXMaxwell(), gpu::titanXPascal(), gpu::teslaK40()};
    double t1 = hostNow();
    out.setupS = t1 - t0;

    // --- the simulated work ------------------------------------------------
    std::vector<Row> rows;
    for (const gpu::GpuSpec &spec : gpus) {
        for (const NetCase &nc : nets) {
            Row row;
            row.net = &nc;
            row.gpu = spec;
            for (const auto &planner : grid) {
                core::SessionConfig cfg;
                cfg.planner = planner;
                cfg.gpu = spec;
                cfg.iterations = kIterations;
                row.columns.push_back(
                    runIsolated(*nc.net, cfg, spans, tele));
            }
            const SessionRun &baseP = row.columns.back();
            if (baseP.result.trainable) {
                row.oracle = baseP;
            } else {
                core::SessionConfig cfg;
                cfg.planner = grid.back();
                cfg.gpu = spec;
                cfg.iterations = kIterations;
                cfg.oracle = true;
                row.oracle = runIsolated(*nc.net, cfg, spans, tele);
                row.oracleRan = true;
            }
            rows.push_back(std::move(row));
        }
    }
    double t2 = hostNow();

    // --- checks: every trainable plan verifies, within its bound ----------
    int sessions = 0;
    int failed = 0;
    for (const Row &row : rows) {
        sessions += int(row.columns.size()) + (row.oracleRan ? 1 : 0);
        for (const SessionRun &s : row.columns) {
            if (!s.result.trainable)
                continue;
            check::CheckResult r = traced(spans, "check.verify", [&] {
                return check::verifyPlan(
                    *row.net->net, s.result.plan,
                    core::PlannerContext::exclusive(row.gpu),
                    core::ExecutorConfig{});
            });
            std::string where = row.net->name + " / " +
                                s.result.configName + " / " + row.gpu.name;
            if (!r.ok()) {
                ++failed;
                out.findings.push_back("verifyPlan failed: " + where +
                                       "\n" + r.report());
            } else if (s.result.maxManagedUsage > r.provablePeakBytes) {
                ++failed;
                out.findings.push_back(strFormat(
                    "measured peak %lld B above the proven bound %lld B: "
                    "%s",
                    (long long)s.result.maxManagedUsage,
                    (long long)r.provablePeakBytes, where.c_str()));
            }
        }
    }
    double t3 = hostNow();
    out.runS = t2 - t1;
    out.checkS = t3 - t2;
    out.attempted = sessions;
    out.failed = failed;
    out.correct = failed == 0;

    // --- outputs -----------------------------------------------------------
    Digest digest;
    SimSamples &sim = out.sim;
    Bytes poolPeak = 0;
    double poolAvgSum = 0.0;
    int setupOoms = 0;
    std::uint64_t ops = 0;
    int trials = 0;
    TimeNs stall = 0, computeBusy = 0, copyBusy = 0;
    for (const Row &row : rows) {
        for (const SessionRun &s : row.columns) {
            digestSession(digest, s);
            out.events += s.events;
            ops += s.ops;
            trials += int(s.result.trials.size());
            computeBusy += s.computeBusy;
            copyBusy += s.copyBusy;
            if (s.result.failReason.rfind("setup OOM", 0) == 0)
                ++setupOoms;
            if (!s.result.trainable)
                continue;
            sim.jct.push_back(toSeconds(s.simEnd));
            sim.computeUtil.push_back(double(s.computeBusy) /
                                      double(s.simEnd));
            stall += s.result.transferStallTime;
            poolPeak = std::max(poolPeak, s.result.maxTotalUsage);
            poolAvgSum += double(s.result.avgTotalUsage);
        }
        if (row.oracleRan) {
            digestSession(digest, row.oracle);
            out.events += row.oracle.events;
            computeBusy += row.oracle.computeBusy;
            copyBusy += row.oracle.copyBusy;
        }
        bool titanX = row.gpu.name == gpus[0].name;
        const core::SessionResult &oracle = row.oracle.result;
        const core::SessionResult &dyn = row.columns[kDynamic].result;
        ++sim.trainableOf;
        if (dyn.trainable) {
            ++sim.trainable;
            double norm = 1.0 - perfLoss(dyn, oracle);
            sim.perfVsOracle.push_back(norm);
            // SLO: the paper's worst vDNN_dyn loss, 18% (Fig. 14).
            ++sim.sloEligible;
            if (norm >= 0.82)
                ++sim.sloMet;
            if (titanX && row.net->vgg16x256)
                sim.anchorPct[int(Anchor::Vgg16Loss)] = 100.0 * (1.0 - norm);
        }
        const core::SessionResult &all = row.columns[kOffloadAllMem].result;
        if (all.trainable) {
            double saving = avgMemorySaving(all, oracle);
            sim.memSaving.push_back(saving);
            if (titanX && row.net->anchor)
                sim.anchorPct[int(*row.net->anchor)] = 100.0 * saving;
        }
    }
    out.digest = digest.value();

    if (spans) {
        auto &l = out.layerCounts;
        l["sim.events"] = double(out.events);
        l["gpu.kernels"] = metrics.counter("gpu0.kernels").value();
        l["gpu.arbiter_grants"] =
            metrics.counter("gpu0.arbiter_grants").value();
        l["gpu.dma_gib"] = (metrics.counter("gpu0.dma_d2h_bytes").value() +
                            metrics.counter("gpu0.dma_h2d_bytes").value()) /
                           double(kGiB);
        l["gpu.compute_busy_s"] = toSeconds(computeBusy);
        l["gpu.copy_busy_s"] = toSeconds(copyBusy);
        l["mem.pool_peak_gib"] = double(poolPeak) / double(kGiB);
        l["mem.pool_avg_gib"] = sim.jct.empty()
                                    ? 0.0
                                    : poolAvgSum / double(sim.jct.size()) /
                                          double(kGiB);
        l["mem.setup_ooms"] = setupOoms;
        l["core.trials"] = trials;
        l["core.ops"] = double(ops);
        l["core.offloads"] = metrics.counter("exec.offloads").value();
        l["core.prefetches"] = metrics.counter("exec.prefetches").value();
        l["core.on_demand_fetches"] =
            metrics.counter("exec.on_demand_fetches").value();
        l["core.stall_s"] = toSeconds(stall);
        out.traceEvents = trace.eventCount();
    }
    return out;
}

} // namespace perfbench
