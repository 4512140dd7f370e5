/**
 * @file
 * Tests for serve::ScenarioGenerator: seeded determinism, arrival
 * ordering/bounds, the per-kind structural properties (adversarial
 * shapes really are adversarial), SLO deadline wiring, and end-to-end
 * runs whose ledgers must audit clean.
 */

#include "serve/scenario_gen.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

using namespace vdnn;
using namespace vdnn::serve;

namespace
{

ScenarioConfig
smallConfig(ScenarioKind kind)
{
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.seed = 42;
    cfg.tenants = 12;
    cfg.devices = 2;
    cfg.horizon = kNsPerSec;
    return cfg;
}

bool
arrivalsSorted(const GeneratedScenario &sc)
{
    return std::is_sorted(sc.jobs.begin(), sc.jobs.end(),
                          [](const JobSpec &a, const JobSpec &b) {
                              return a.arrival < b.arrival;
                          });
}

} // namespace

TEST(ScenarioGen, DeterministicPerSeed)
{
    for (ScenarioKind kind :
         {ScenarioKind::Diurnal, ScenarioKind::Bursty,
          ScenarioKind::AdmissionThrash,
          ScenarioKind::PriorityInversion}) {
        GeneratedScenario a =
            ScenarioGenerator(smallConfig(kind)).generate();
        GeneratedScenario b =
            ScenarioGenerator(smallConfig(kind)).generate();
        ASSERT_EQ(a.jobs.size(), b.jobs.size());
        for (std::size_t i = 0; i < a.jobs.size(); ++i) {
            EXPECT_EQ(a.jobs[i].name, b.jobs[i].name);
            EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
            EXPECT_EQ(a.jobs[i].iterations, b.jobs[i].iterations);
            EXPECT_EQ(a.jobs[i].priority, b.jobs[i].priority);
            EXPECT_EQ(a.jobs[i].sloJct, b.jobs[i].sloJct);
        }
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_EQ(a.devices.size(), b.devices.size());
    }
}

TEST(ScenarioGen, SeedChangesTheWorkload)
{
    ScenarioConfig cfg = smallConfig(ScenarioKind::Diurnal);
    GeneratedScenario a = ScenarioGenerator(cfg).generate();
    cfg.seed = 43;
    GeneratedScenario b = ScenarioGenerator(cfg).generate();
    bool differs = false;
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        differs |= a.jobs[i].arrival != b.jobs[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(ScenarioGen, ArrivalsSortedAndInWindow)
{
    GeneratedScenario diurnal =
        ScenarioGenerator(smallConfig(ScenarioKind::Diurnal))
            .generate();
    EXPECT_TRUE(arrivalsSorted(diurnal));
    for (const JobSpec &j : diurnal.jobs) {
        EXPECT_GE(j.arrival, 0);
        EXPECT_LT(j.arrival, kNsPerSec);
    }

    // Bursty offsets are one-sided past each burst center, so the
    // tail can overrun the horizon a little — but only by the
    // (clamped) exponential spread, never unboundedly.
    ScenarioConfig bc = smallConfig(ScenarioKind::Bursty);
    GeneratedScenario bursty = ScenarioGenerator(bc).generate();
    EXPECT_TRUE(arrivalsSorted(bursty));
    for (const JobSpec &j : bursty.jobs) {
        EXPECT_GE(j.arrival, 0);
        EXPECT_LT(j.arrival, bc.horizon + 8 * bc.burstSpread);
    }
}

TEST(ScenarioGen, EveryJobCarriesAnSlo)
{
    for (ScenarioKind kind :
         {ScenarioKind::Diurnal, ScenarioKind::Bursty,
          ScenarioKind::AdmissionThrash,
          ScenarioKind::PriorityInversion}) {
        GeneratedScenario sc =
            ScenarioGenerator(smallConfig(kind)).generate();
        for (const JobSpec &j : sc.jobs) {
            EXPECT_GT(j.sloJct, 0) << j.name;
            EXPECT_GE(j.iterations, 1) << j.name;
            EXPECT_NE(j.network, nullptr) << j.name;
            EXPECT_NE(j.planner, nullptr) << j.name;
        }
    }
}

TEST(ScenarioGen, HeterogeneousClusterCyclesThePresets)
{
    std::vector<gpu::GpuSpec> specs =
        ScenarioGenerator::heterogeneousCluster(7);
    ASSERT_EQ(specs.size(), 7u);
    std::set<std::string> names;
    for (int d = 0; d < 3; ++d)
        names.insert(specs[std::size_t(d)].name);
    EXPECT_EQ(names.size(), 3u); // three distinct GPU models
    EXPECT_EQ(specs[0].name, specs[3].name);
    EXPECT_EQ(specs[1].name, specs[4].name);
    EXPECT_EQ(specs[2].name, specs[5].name);
    EXPECT_EQ(specs[0].name, specs[6].name);
}

TEST(ScenarioGen, PriorityInversionShape)
{
    GeneratedScenario sc =
        ScenarioGenerator(smallConfig(ScenarioKind::PriorityInversion))
            .generate();
    EXPECT_EQ(sc.policy, SchedPolicy::PreemptivePriority);
    ASSERT_EQ(sc.devices.size(), 1u); // single device by construction
    int low = 0, high = 0;
    for (const JobSpec &j : sc.jobs) {
        if (j.priority == 0) {
            ++low;
            // Low-priority victims must carry aging, or the hostile
            // stream starves them forever.
            EXPECT_GT(j.agingRatePerSec, 0.0) << j.name;
        } else {
            EXPECT_EQ(j.priority, 10) << j.name;
            ++high;
        }
    }
    EXPECT_GT(low, 0);
    EXPECT_GT(high, low); // the hostile stream outnumbers the victims
}

TEST(ScenarioGen, AdmissionThrashMixesHeavyAndLightTenants)
{
    ScenarioConfig cfg = smallConfig(ScenarioKind::AdmissionThrash);
    GeneratedScenario sc = ScenarioGenerator(cfg).generate();
    EXPECT_TRUE(arrivalsSorted(sc));
    // Footprints must actually differ: the heavy third uses a
    // different (bigger) network than the backfillers.
    std::set<const net::Network *> nets;
    for (const JobSpec &j : sc.jobs)
        nets.insert(j.network.get());
    EXPECT_GE(nets.size(), 2u);
    // Arrivals compress into the head of the horizon.
    for (const JobSpec &j : sc.jobs)
        EXPECT_LE(j.arrival, cfg.horizon / 5);
}

TEST(ScenarioGen, SmallDiurnalRunsCleanEndToEnd)
{
    ScenarioConfig cfg = smallConfig(ScenarioKind::Diurnal);
    cfg.tenants = 6;
    GeneratedScenario sc = ScenarioGenerator(cfg).generate();

    SchedulerConfig sched_cfg;
    sched_cfg.policy = sc.policy;
    sched_cfg.devices = sc.devices;
    Scheduler sched(sched_cfg);
    for (JobSpec &spec : sc.jobs)
        sched.submit(std::move(spec));
    ServeReport rep = sched.run();

    EXPECT_EQ(rep.finishedCount() + rep.failedCount() +
                  rep.rejectedCount(),
              int(rep.jobs.size()));
    EXPECT_EQ(rep.sloEligible(), int(rep.jobs.size()));
    EXPECT_GE(rep.sloAttainment(), 0.0);
    EXPECT_LE(rep.sloAttainment(), 1.0);
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
}

// Regression: when admission gives up on a job after repeated setup
// OOM, a job that was admitted before (requeued after an in-flight
// OOM) must still end its audit trail with a terminal "fail" event —
// the auditor used to report it as a LostJob. This PriorityInversion
// run (the priority_churn shape at 96 tenants, one OOM requeue
// allowed) requeues a tenant whose readmission then fails setup.
TEST(ScenarioGen, SetupOomGiveUpOfRequeuedJobEndsItsTrail)
{
    ScenarioConfig cfg;
    cfg.kind = ScenarioKind::PriorityInversion;
    cfg.seed = 9;
    cfg.tenants = 96;
    GeneratedScenario sc = ScenarioGenerator(cfg).generate();

    SchedulerConfig sched_cfg;
    sched_cfg.policy = sc.policy;
    sched_cfg.devices = ScenarioGenerator::heterogeneousCluster(4);
    sched_cfg.preemptGranularity = PreemptGranularity::Op;
    sched_cfg.placement = std::make_shared<LoadBalancePlacement>();
    sched_cfg.rebalancePeriod = 50 * kNsPerMs;
    sched_cfg.bufferPaging = true;
    sched_cfg.maxOomRequeues = 1;
    Scheduler sched(sched_cfg);
    for (JobSpec &spec : sc.jobs)
        sched.submit(std::move(spec));
    ServeReport rep = sched.run();

    const std::string gave_up = "admission gave up after repeated setup OOM";
    int requeued_then_gave_up = 0;
    for (const JobOutcome &j : rep.jobs) {
        if (j.state != JobState::Failed ||
            j.failReason.rfind(gave_up, 0) != 0) {
            continue;
        }
        const LifecycleEvent *last = nullptr;
        bool requeued = false;
        for (const LifecycleEvent &ev : rep.lifecycle) {
            if (ev.job != j.id)
                continue;
            requeued |= std::string(ev.what) == "requeue";
            last = &ev;
        }
        if (!requeued)
            continue; // never admitted: no trail to close
        ++requeued_then_gave_up;
        ASSERT_NE(last, nullptr);
        EXPECT_STREQ(last->what, "fail");
        EXPECT_EQ(last->reservedAfter, last->reservedBefore);
        EXPECT_EQ(last->when, j.finishTime);
    }
    EXPECT_GE(requeued_then_gave_up, 1);
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
}
