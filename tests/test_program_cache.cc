/**
 * @file
 * Tests for core::ProgramCache: one compiled program per (network,
 * plan, device, config) key, shared by every executor of the key and
 * kept alive by its executors; and the serve-layer run that owns one
 * cache compiling (and, with verification on, verifying) each
 * distinct program exactly once.
 */

#include "core/executor.hh"
#include "core/program_cache.hh"

#include "common/units.hh"
#include "net/builders.hh"
#include "obs/metrics.hh"
#include "serve/placement.hh"
#include "serve/scenario_gen.hh"
#include "serve/scheduler.hh"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

using namespace vdnn;
using namespace vdnn::core;

namespace
{

MemoryPlan
offloadAll(const net::Network &network, const gpu::GpuSpec &gpu,
           AlgoPreference pref = AlgoPreference::PerformanceOptimal)
{
    return OffloadAllPlanner(pref).plan(network,
                                        PlannerContext::exclusive(gpu));
}

/** First buffer @p plan offloads. */
net::BufferId
firstOffloaded(const MemoryPlan &plan)
{
    for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
        if (plan.buffers[b].offloaded())
            return net::BufferId(b);
    }
    return -1;
}

/** First CONV layer of @p network. */
net::LayerId
firstConv(const net::Network &network)
{
    for (net::LayerId id : network.topoOrder()) {
        if (network.node(id).spec.kind == dnn::LayerKind::Conv)
            return id;
    }
    return -1;
}

struct Fixture
{
    std::unique_ptr<net::Network> network = net::buildTinyCnn(32);
    gpu::GpuSpec gpu = gpu::titanXMaxwell();
    dnn::CudnnSim cudnn{gpu};
    MemoryPlan plan = offloadAll(*network, gpu);
};

} // namespace

TEST(ProgramCache, SameKeyGivesSamePointerAndOneCompile)
{
    Fixture f;
    ProgramCache cache;
    bool compiled = false;
    auto a = cache.get(*f.network, f.cudnn, f.plan, {}, &compiled);
    EXPECT_TRUE(compiled);
    // Provenance and trial history are not part of the key.
    MemoryPlan relabelled = f.plan;
    relabelled.provenance = "relabelled";
    relabelled.trials.push_back(TrialRecord{"trial", true, 1, ""});
    auto b = cache.get(*f.network, f.cudnn, relabelled, {}, &compiled);
    EXPECT_FALSE(compiled);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cache.compiles(), 1);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.distinctKeys(), 1);
}

TEST(ProgramCache, EverySingleKeyFieldMisses)
{
    Fixture f;
    net::BufferId b = firstOffloaded(f.plan);
    net::LayerId conv = firstConv(*f.network);
    ASSERT_GE(b, 0);
    ASSERT_GE(conv, 0);

    struct Variant
    {
        const char *what;
        std::function<void(MemoryPlan &, ExecutorConfig &,
                           gpu::GpuSpec &)>
            mutate;
    };
    const std::vector<Variant> variants = {
        {"directive action",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             p.buffers[std::size_t(b)].action =
                 BufferDirective::Action::KeepResident;
         }},
        {"compressed",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             p.buffers[std::size_t(b)].compressed = true;
         }},
        {"dmaScale",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             p.buffers[std::size_t(b)].dmaScale = 0.5;
         }},
        {"prefetchPriority",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             p.buffers[std::size_t(b)].prefetchPriority = 3;
         }},
        {"one layer's algo",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             dnn::ConvAlgo &a = p.algos[std::size_t(conv)];
             a = a == dnn::kMemoryOptimalAlgo ? dnn::ConvAlgo::Fft
                                              : dnn::kMemoryOptimalAlgo;
         }},
        {"staticAllocation",
         [&](MemoryPlan &p, ExecutorConfig &, gpu::GpuSpec &) {
             p.staticAllocation = true;
         }},
        {"device spec",
         [&](MemoryPlan &, ExecutorConfig &, gpu::GpuSpec &g) {
             g = gpu::titanXPascal();
         }},
        {"syncAtLayerBoundary",
         [&](MemoryPlan &, ExecutorConfig &c, gpu::GpuSpec &) {
             c.syncAtLayerBoundary = false;
         }},
        {"prefetchEnabled",
         [&](MemoryPlan &, ExecutorConfig &c, gpu::GpuSpec &) {
             c.prefetchEnabled = false;
         }},
        {"prefetchWindowBounded",
         [&](MemoryPlan &, ExecutorConfig &c, gpu::GpuSpec &) {
             c.prefetchWindowBounded = false;
         }},
    };

    ProgramCache cache;
    auto base = cache.get(*f.network, f.cudnn, f.plan, {});
    std::set<const CompiledProgram *> seen{base.get()};
    for (const Variant &v : variants) {
        MemoryPlan plan = f.plan;
        ExecutorConfig cfg;
        gpu::GpuSpec gpu = f.gpu;
        v.mutate(plan, cfg, gpu);
        dnn::CudnnSim cudnn(gpu);
        bool compiled = false;
        auto cp = cache.get(*f.network, cudnn, plan, cfg, &compiled);
        EXPECT_TRUE(compiled) << v.what;
        EXPECT_TRUE(seen.insert(cp.get()).second) << v.what;
    }
    // The base key still hits after every variant was inserted.
    EXPECT_EQ(cache.get(*f.network, f.cudnn, f.plan, {}), base);
    EXPECT_EQ(cache.compiles(), int(variants.size()) + 1);
    EXPECT_EQ(cache.distinctKeys(), cache.compiles());

    // A different network object is a different key, even when it is
    // built identically.
    auto twin = net::buildTinyCnn(32);
    EXPECT_NE(cache.get(*twin, f.cudnn, f.plan, {}), base);
}

TEST(ProgramCache, AdoptPlanRoundTripHits)
{
    Fixture f;
    MemoryPlan conv_only =
        OffloadConvPlanner(AlgoPreference::PerformanceOptimal)
            .plan(*f.network, PlannerContext::exclusive(f.gpu));
    ASSERT_FALSE(conv_only.buffers == f.plan.buffers);

    ProgramCache cache;
    gpu::Runtime rt(f.gpu);
    MemoryManager mm(rt);
    Executor ex(*f.network, f.cudnn, rt, mm, f.plan, {}, &cache);
    ASSERT_TRUE(ex.setup());
    std::shared_ptr<const CompiledProgram> first = ex.compiled();
    ASSERT_TRUE(ex.runIteration().ok);

    ex.adoptPlan(conv_only);
    EXPECT_NE(ex.compiled(), first);
    ASSERT_TRUE(ex.runIteration().ok);
    ex.adoptPlan(f.plan);
    EXPECT_EQ(ex.compiled(), first);
    ASSERT_TRUE(ex.runIteration().ok);
    EXPECT_EQ(cache.compiles(), 2);
    EXPECT_EQ(cache.lookups(), 3u);
    ex.teardown();
}

TEST(ProgramCache, ExecutorKeepsItsProgramAliveAfterTheCacheDies)
{
    Fixture f;
    auto cache = std::make_unique<ProgramCache>();
    gpu::Runtime rt(f.gpu);
    MemoryManager mm(rt);
    Executor ex(*f.network, f.cudnn, rt, mm, f.plan, {}, cache.get());
    std::weak_ptr<const CompiledProgram> weak = ex.compiled();
    cache.reset();
    EXPECT_FALSE(weak.expired());
    ASSERT_TRUE(ex.setup());
    IterationResult r = ex.runIteration();
    EXPECT_TRUE(r.ok) << r.failReason;
    ex.teardown();
}

TEST(ProgramCache, ServingRunCompilesAndVerifiesEachDistinctProgramOnce)
{
    // Priority-inversion churn on two heterogeneous devices under
    // op-granularity preemption: admissions, evictions, resumes and
    // migrations all bind programs through the scheduler's cache.
    serve::ScenarioConfig sc;
    sc.kind = serve::ScenarioKind::PriorityInversion;
    sc.seed = 1;
    sc.tenants = 48;
    serve::GeneratedScenario scenario =
        serve::ScenarioGenerator(sc).generate();

    obs::MetricsRegistry metrics;
    serve::SchedulerConfig cfg;
    cfg.policy = scenario.policy;
    cfg.devices = serve::ScenarioGenerator::heterogeneousCluster(2);
    cfg.placement = std::make_shared<serve::LoadBalancePlacement>();
    cfg.rebalancePeriod = 50 * kNsPerMs;
    cfg.preemptGranularity = serve::PreemptGranularity::Op;
    cfg.bufferPaging = true;
    cfg.telemetry.metrics = &metrics;
    serve::Scheduler sched(cfg);
    for (serve::JobSpec &spec : scenario.jobs) {
        spec.exec.check.verifyPrograms = true;
        sched.submit(std::move(spec));
    }
    serve::ServeReport rep = sched.run();
    EXPECT_EQ(rep.finishedCount(), int(rep.jobs.size()));
    int preemptions = 0, migrations = 0;
    for (const serve::JobOutcome &j : rep.jobs) {
        preemptions += j.preemptions;
        migrations += j.migrations;
    }
    EXPECT_GT(preemptions, 0);
    EXPECT_GT(migrations, 0);

    const ProgramCache &cache = sched.programCache();
    EXPECT_GT(cache.compiles(), 0);
    EXPECT_EQ(cache.distinctKeys(), cache.compiles());
    EXPECT_GT(cache.lookups(), std::uint64_t(cache.compiles()));
    EXPECT_EQ(metrics.counter("check.programs_verified").value(),
              double(cache.compiles()));
}
