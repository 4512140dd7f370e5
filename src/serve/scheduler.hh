/**
 * @file
 * Multi-tenant, multi-device GPU-sharing scheduler.
 *
 * Multiplexes N training jobs over a cluster of simulated GPUs
 * (gpu/cluster.hh): per device one compute engine, one DMA engine per
 * direction, one PCIe link, one cnmem pool — all devices on one
 * shared simulated clock. Jobs are admitted by a *per-device*
 * AdmissionController when their policy-dependent footprint fits, and
 * a pluggable PlacementPolicy (serve/placement.hh) picks the device;
 * the freed residency of the vDNN policies is what lets many more
 * tenants pack onto the same 12 GB devices than the baseline
 * allocator. A single GPU (no SchedulerConfig::devices) is served as
 * a cluster of one: the same admission sweep, placement and tenant
 * step run at every device count.
 *
 * Scheduling policies (iteration order *within* a device):
 *
 *  - FifoExclusive: one job owns a device at a time, run to
 *    completion in arrival order — the status quo this subsystem
 *    exists to beat (head-of-line blocking, queueing delay).
 *  - RoundRobin: iteration-granularity time sharing in the style of
 *    the Salus execution engine — every admitted job keeps its
 *    persistent state device-resident while iterations from all
 *    tenants interleave on the shared compute engine, and the
 *    admission queue is backfilled whenever capacity frees up.
 *  - ShortestRemaining: same packing, but the next iteration goes to
 *    the admitted job with the fewest remaining iterations (SRPT at
 *    iteration granularity) — minimizes mean job completion time.
 *  - PackedOverlap: op-granularity packing over the IterationProgram
 *    steppers, on any device count. Whenever one tenant blocks on a
 *    DMA join, the next ready tenant's compute op is dispatched
 *    instead of idling the compute engine; admission reserves the
 *    *sum* of transients per device.
 *  - PreemptivePriority: priority packing driven by
 *    JobSpec::priority, on any device count. A higher-priority
 *    arrival that fails admission preempts the lowest-priority
 *    running tenants through the Session lifecycle state machine —
 *    at iteration boundaries by default, or mid-iteration at the
 *    victim's next Sync/Barrier boundary when
 *    SchedulerConfig::preemptGranularity is Op (the beneficiary is
 *    dispatching kernels within simulated microseconds; ServeReport
 *    records the preemption latency). JobSpec::agingRatePerSec
 *    bounds starvation: a queued job's effective priority grows with
 *    its wait, so a hostile stream of high-priority arrivals cannot
 *    park a low-priority job forever.
 *
 * One event-driven engine serves every configuration: per turn it
 * sweeps only the devices on the WakeSet (populated by the Device
 * completion hooks, which also identify the one tenant whose stream
 * drained), offers each woken device one non-blocking step per
 * unblocked tenant — under PackedOverlap by walking the device's ready
 * set, so a blocked tenant costs nothing until its own stream drains —
 * and executes exactly one completion event when no stepper
 * progressed. Admission rescans gate on a dirty flag, with one
 * device-count rule left: a single device under an
 * iteration-granularity policy processes arrivals and admission only
 * at iteration boundaries, rescanning unconditionally there (the
 * priority policy's preemption count depends on that cadence; see
 * runEngine()). On a cluster a periodic
 * rebalance sweep migrates the smallest-footprint tenant off the
 * most-loaded device whenever the queue-depth imbalance reaches a
 * threshold (Session::migrate: suspend -> evict-to-host -> re-plan
 * and resume on the target).
 *
 * Under memory pressure the scheduler pages *buffers* before it
 * evicts *tenants* (Salus-style): when SchedulerConfig::bufferPaging
 * is on and a fitting reservation still fails setup, resident
 * tenants — blocked ones first — drop their coldest host-backed
 * device copies (Session::pageOut) before the OOM backoff inflates
 * reservations or a whole tenant is evicted.
 *
 * In-flight OOM (overcommit or pool fragmentation despite the
 * reservation) aborts only that iteration: the job is torn down,
 * its reservation inflated, and it is requeued for readmission —
 * after a bounded number of attempts it is marked Failed.
 */

#ifndef VDNN_SERVE_SCHEDULER_HH
#define VDNN_SERVE_SCHEDULER_HH

#include "dnn/cudnn_sim.hh"
#include "gpu/cluster.hh"
#include "gpu/gpu_spec.hh"
#include "gpu/runtime.hh"
#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"
#include "mem/usage_tracker.hh"
#include "serve/admission.hh"
#include "serve/job.hh"
#include "serve/placement.hh"
#include "serve/serve_stats.hh"
#include "serve/wake_set.hh"
#include "stats/time_weighted.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vdnn::serve
{

enum class SchedPolicy : std::uint8_t
{
    FifoExclusive,      ///< one job at a time, arrival order
    RoundRobin,         ///< iteration-granularity packing (Salus-style)
    ShortestRemaining,  ///< packed, fewest-remaining-iterations first
    PackedOverlap,      ///< op-granularity packing, compute/DMA overlap
    PreemptivePriority, ///< priority packing; preempts via suspend/evict
};

const char *schedPolicyName(SchedPolicy p);

/** When may PreemptivePriority park a victim? */
enum class PreemptGranularity : std::uint8_t
{
    /**
     * Only tenants with no iteration in flight are preemptible; a
     * high-priority arrival waits out the victim's current iteration.
     * This is the legacy (golden-pinned) behavior and keeps the
     * single-device admission cadence at iteration boundaries.
     */
    Iteration,
    /**
     * A victim's live stepper is parked at its next Sync/Barrier
     * boundary and the partial iteration unwound (it re-runs after
     * resume), so the preemptor dispatches its first kernel within
     * simulated microseconds instead of a full victim iteration.
     * Arrivals and admission are processed every engine turn.
     */
    Op,
};

struct SchedulerConfig
{
    SchedPolicy policy = SchedPolicy::RoundRobin;
    /** The device all tenants share (single-device mode). */
    gpu::GpuSpec gpu;
    /**
     * Cluster mode: one GpuSpec per device (heterogeneous allowed).
     * Empty (the default) serves on the single device in `gpu`; a
     * non-empty list supersedes `gpu`. Every policy works at every
     * device count.
     */
    std::vector<gpu::GpuSpec> devices;
    /** Device chooser for admissions. Null = BestFitPlacement. */
    std::shared_ptr<PlacementPolicy> placement;
    /**
     * Cluster rebalance sweep period: every period, migrate the
     * smallest-footprint tenant off the most-loaded device when the
     * running-tenant imbalance reaches rebalanceThreshold.
     * 0 (default) = placement is static, no migration.
     */
    TimeNs rebalancePeriod = 0;
    /** Queue-depth gap (most vs least loaded) triggering migration. */
    int rebalanceThreshold = 2;
    bool contention = true;
    /** Cap on concurrently admitted jobs (0 = unlimited). */
    int maxJobsInFlight = 0;
    /** Reservation inflation guarding estimate error/fragmentation. */
    double admissionSafety = 1.05;
    /** Reservation growth per OOM requeue of a job. */
    double oomBackoffScale = 1.25;
    /** OOM requeues before a job is marked Failed. */
    int maxOomRequeues = 3;
    /**
     * Preemption granularity (PreemptivePriority only). The default,
     * Iteration, is golden-pinned legacy behavior; Op enables
     * microsecond mid-iteration preemption (see the enum).
     */
    PreemptGranularity preemptGranularity = PreemptGranularity::Iteration;
    /**
     * Salus-style no-progress handling: buffers are evicted before
     * tenants. When a fitting reservation still fails setup (pool
     * fragmentation / co-tenant overshoot), page resident tenants'
     * coldest host-backed device copies (Session::pageOut, blocked
     * tenants first) and retry before the OOM backoff inflates the
     * reservation. When an admitted tenant's *iteration* aborts with
     * OOM, page co-tenants the same way before it requeues, so the
     * re-admitted attempt runs against real headroom instead of
     * OOMing identically. Off by default (legacy behavior).
     */
    bool bufferPaging = false;
    /** Retain pool-usage and jobs-in-flight timelines in the report. */
    bool keepTimeline = false;

    /**
     * Telemetry sinks (obs/). Wired through every device of the
     * cluster; scheduler decisions (admission, preemption, migration,
     * rebalance) become instant/flow events and serve-level counters.
     * Null members (the default) cost one branch per choke point.
     */
    obs::Telemetry telemetry;

    SchedulerConfig();
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerConfig config);

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Register a job; it becomes visible at spec.arrival. */
    JobId submit(JobSpec spec);

    /** Drive every submitted job to a terminal state. */
    ServeReport run();

    // --- introspection (tests) -------------------------------------------
    int deviceCount() const { return int(devs.size()); }
    gpu::Device &device(int d) { return *devs.at(std::size_t(d))->dev; }
    mem::MemoryPool &devicePoolOn(int d)
    {
        return *devs.at(std::size_t(d))->pool;
    }
    const AdmissionController &admissionStateOn(int d) const
    {
        return devs.at(std::size_t(d))->admission;
    }
    const Job &job(JobId id) const { return *jobs.at(std::size_t(id)); }
    int jobsInFlight() const;
    int jobsEvicted() const { return int(evictedJobs.size()); }
    int jobsOnDevice(int d) const
    {
        return int(devs.at(std::size_t(d))->running.size());
    }
    /** The run's compiled programs, one per distinct key. */
    const core::ProgramCache &programCache() const { return programs; }

    /** Event-driven serve-loop accounting (also on the ServeReport). */
    struct LoopStats
    {
        /** Device wake-hook firings (one per executed event). */
        std::uint64_t wakeups = 0;
        /** Step offers that made no progress: a stepper returned
         *  Blocked, or an iteration-granularity offer found no work or
         *  a memoized-blocked stepper. */
        std::uint64_t fruitlessPolls = 0;
        /** Idle clock advances to the next pending arrival. */
        std::uint64_t idleAdvances = 0;
    };
    LoopStats loopStats() const
    {
        return {statWakeups, statFruitlessPolls, statIdleAdvances};
    }

    /**
     * Test hook (spurious-wakeup safety): treat every device (and
     * every tenant) as woken on every turn of the engine,
     * degenerating the wake-list sweep back into the old full polling
     * scan. A non-blocking step offered to a blocked or empty device
     * is pure, so outputs must be byte-identical with this on — the
     * equivalence suite pins it.
     */
    void setDebugForceWakeAll(bool on) { forceWakeAll = on; }

  private:
    /**
     * The packed sweep's ready set: (entry sequence, job) pairs in a
     * sorted flat vector, with std::set's emplace / erase /
     * upper_bound semantics. Residents number in the tens, so a
     * shifted insert beats a tree node per wake, and the storage is
     * reused for the whole run.
     */
    class ReadySet
    {
      public:
        using Entry = std::pair<std::uint64_t, JobId>;
        using const_iterator = std::vector<Entry>::const_iterator;

        const_iterator begin() const { return items.begin(); }
        const_iterator end() const { return items.end(); }
        const_iterator upper_bound(const Entry &e) const
        {
            return std::upper_bound(items.begin(), items.end(), e);
        }
        /** Insert @p e unless present. */
        void emplace(std::uint64_t entry, JobId id)
        {
            Entry e{entry, id};
            auto it = std::lower_bound(items.begin(), items.end(), e);
            if (it == items.end() || *it != e)
                items.insert(it, e);
        }
        /** Remove @p e if present. */
        void erase(const Entry &e)
        {
            auto it = std::lower_bound(items.begin(), items.end(), e);
            if (it != items.end() && *it == e)
                items.erase(it);
        }

      private:
        std::vector<Entry> items;
    };

    /** Everything the scheduler keeps per device of the cluster. */
    struct DeviceCtx
    {
        int id;
        gpu::Device *dev;
        mem::MemoryPool *pool;
        mem::PinnedHostAllocator *host;
        dnn::CudnnSim cudnn;        ///< perf model for this device
        AdmissionController admission;
        mem::UsageTracker track;    ///< this device's pool usage
        std::vector<JobId> running; ///< admitted here, entry order
        /**
         * The packed sweep's ready set: residents whose blocked-stepper
         * memo is clear, keyed by (entry sequence, job) so iteration
         * follows `running` order. A tenant leaves when its step
         * returns Blocked or it leaves `running`, and rejoins on its
         * wake hook or on (re-)entry.
         */
        ReadySet ready;
        std::uint64_t entrySeq = 0; ///< last entry sequence handed out
        /**
         * Op-granularity challenger cache: the first Running resident
         * in `running` order with the highest effective priority (-1
         * when none) and that priority. Residents do not age, so it
         * holds until the running set changes or a resident moves
         * between Running and Suspended, which clear topValid.
         */
        JobId topRunning = -1;
        double topRunningPriority = 0.0;
        bool topValid = false;
        /** First device with an identical spec: footprint estimates
         *  are shared per canonical device. */
        int estimateSlot = 0;
        std::size_t rrCursor = 0;
        /** Job whose iteration the engine has in flight
         *  (iteration-granularity policies; -1 under PackedOverlap,
         *  where every resident tenant may hold a live stepper). */
        JobId inFlight = -1;
        int jobsPlaced = 0;
        int migrationsIn = 0;
        int migrationsOut = 0;

        DeviceCtx(int id, gpu::Cluster &cluster,
                  const SchedulerConfig &cfg);
    };

    void collectArrivals();
    FootprintEstimate estimateFor(const Job &job, DeviceCtx &d);
    bool tryAdmit(Job &job, const FootprintEstimate &est, DeviceCtx &d);
    void finishJob(Job &job, JobState final_state,
                   const std::string &why = "");
    void evictForRequeue(Job &job);
    void recordInflight();
    /** Earliest arrival still Pending (kTimeNone when none): the
     *  incrementally maintained numPending/nextPendingArrival pair,
     *  exact because jobs only leave Pending via collectArrivals(). */
    TimeNs nextPendingArrivalTime() const
    {
        return numPending > 0 ? nextPendingArrival : kTimeNone;
    }
    bool allDone() const;
    /** Fold one completed (ok) iteration into the job's record. */
    void chargeIteration(Job &job, const core::IterationResult &r);
    /** Adopt the session's first-iteration profile: shrink the
     *  admission reservation to the measured footprint. */
    void adoptProfile(Job &job);
    /** Reservation bytes summed over every device's ledger. */
    Bytes reservedBytesTotal() const;
    /** Effective priority: static priority plus queue-wait aging
     *  (accrued while Queued/Evicted, retained while running). */
    double effectivePriority(const Job &job, TimeNs now) const;
    /** Fold the current waiting spell into the job's aging clock. */
    void stopWaiting(Job &job);
    /** Make @p job resident on @p d (admit, resume, migrate-in): it
     *  joins the running and ready sets and @p d is woken. */
    void enterRunning(Job &job, DeviceCtx &d);
    /** Drop @p id from its device's resident set, fixing cursors. */
    void removeFromRunning(JobId id);
    /** Append a lifecycle transition to the audit log. */
    void logLifecycle(JobId id, const char *what, Bytes reserved_before,
                      int device);
    ServeReport buildReport();

    // --- admission -------------------------------------------------------
    /** The admission sweep, at every device count: priority sort,
     *  rejection of jobs no device could hold, placement, make-room
     *  under the priority policy, backfill. */
    void admitFromQueue();
    /** choosePlacement(): no device could ever hold the job. */
    static constexpr int kNowhere = -2;
    /** Fill `loads` for @p job in one pass over the devices and, when
     *  @p slot_free and some device fits, ask the PlacementPolicy.
     *  @return the device, -1 when none fits now, or kNowhere. */
    int choosePlacement(Job &job, bool slot_free);
    /** Take the job at @p queue_index terminal as Rejected. */
    void rejectInfeasible(Job &job, std::size_t queue_index);
    /** Inflate a setup-OOM'd job's reservation; true when it went
     *  terminal (Failed) and was taken from the queue. */
    bool backoffAfterSetupOom(Job &job, std::size_t queue_index);

    // --- lifecycle state machine (PreemptivePriority) --------------------
    /** Lowest-priority tenant of @p d strictly below @p priority
     *  (latest arrival breaks ties), or nullptr. Tenants with an
     *  iteration in flight are victims only at Op granularity. */
    Job *pickVictim(DeviceCtx &d, double below_priority);
    /** Suspend + evict one tenant, moving its reservation to the
     *  evicted ledger. False when pinned host memory is exhausted.
     *  Accepts a victim already parked resident by parkInFlight(). */
    bool preempt(Job &victim);
    /** Highest effective-priority *Running* co-tenant of @p d with
     *  strictly higher priority than the in-flight tenant, or
     *  nullptr. Parked (Suspended) residents never challenge. O(1)
     *  between resident-set changes (DeviceCtx::topRunning). */
    Job *topChallengerOn(DeviceCtx &d, const Job &inflight);
    /** Op-granularity dispatch preemption: freeze the in-flight
     *  tenant's stepper at its current op boundary and leave it
     *  resident (no DMA, ledger untouched); the device goes to
     *  @p challenger, which is charged the victimsPreempted
     *  attribution that feeds preemption-latency sampling. */
    void parkInFlight(DeviceCtx &d, Job &victim, Job &challenger);
    /** Evict @p d's lowest-priority tenants until @p job's
     *  reservation (and, when the in-flight cap binds, a slot)
     *  fits. */
    bool makeRoomFor(Job &job, const FootprintEstimate &est,
                     DeviceCtx &d);
    /** Make-room target: the feasible device holding the most
     *  evictable (below-@p job's-priority) reserved bytes, or null. */
    DeviceCtx *pickPreemptDevice(Job &job);
    /** Resume evicted tenants that fit again, onto the device each is
     *  homed on — best effective priority first under the priority
     *  policy, earliest arrival otherwise. */
    void resumeEvictedSweep();
    /** Readmit one evicted tenant onto @p d; false if it stays parked. */
    bool tryResumeOn(Job &job, DeviceCtx &d);

    // --- buffer-granularity paging (Salus-style) -------------------------
    /** Page up to @p need bytes of cold device copies off @p d's
     *  resident tenants (blocked tenants first). @return bytes freed. */
    Bytes pageVictimBuffers(DeviceCtx &d, Bytes need);

    // --- the unified event-driven engine ---------------------------------
    /** Within-device iteration order (priority / RR / SRPT / FIFO). */
    Job *pickNextOn(DeviceCtx &d);
    /** Pick @p d's in-flight tenant and offer it one step
     *  (iteration-granularity policies). */
    bool stepDeviceOnce(DeviceCtx &d);
    /** Offer every unblocked resident tenant of @p d one step
     *  (PackedOverlap: one live stepper per tenant). */
    bool sweepPacked(DeviceCtx &d);
    /** The one tenant step: begin an iteration if none is live, make
     *  one non-blocking step, and settle a finished iteration (charge,
     *  finish or requeue). False when the stepper blocked (its memo is
     *  set and it leaves @p d's ready set). */
    bool stepTenant(DeviceCtx &d, Job &job);
    /** One step offer to @p d, dispatched by policy. */
    bool sweepDevice(DeviceCtx &d);
    /** Feed the preemption-latency telemetry at first dispatch. */
    void notePreemptionLatency(const Job &job);
    /** Periodic migration sweep off the most-loaded device. */
    void maybeRebalance();
    bool migrateJob(Job &job, DeviceCtx &src, DeviceCtx &dst);
    /** The one serve loop: every policy at every device count. */
    void runEngine();
    /** Device wake hook body: push @p device onto the wake-set and
     *  clear @p client's blocked-stepper memo, returning a resident
     *  client to its device's ready set. */
    void onDeviceWake(int device, int client);
    static void deviceWakeTrampoline(void *self, int device, int client);

    SchedulerConfig cfg;
    gpu::Cluster cluster;
    std::vector<std::unique_ptr<DeviceCtx>> devs;
    /**
     * One CompiledProgram per (network, plan, device, config) key,
     * shared by every admission, resume, migration and re-plan of the
     * run. Scoped to the scheduler, not the process: the keys hold the
     * addresses of the networks the job specs keep alive. Starts empty,
     * so construction and submit() compile nothing.
     */
    core::ProgramCache programs;

    std::vector<std::unique_ptr<Job>> jobs;
    /** Analytic footprint estimates, deterministic per (job, device
     *  spec): slot `job * deviceCount() + DeviceCtx::estimateSlot`. */
    std::vector<std::optional<FootprintEstimate>> estimates;
    /** Per-device admission snapshot, one slot per device, reused by
     *  every placement decision of the run (`fits` is set per job,
     *  the load fields only when the PlacementPolicy is asked). */
    std::vector<DeviceLoad> loads;
    JobQueue queue;                 ///< arrived, waiting for admission
    std::vector<JobId> evictedJobs; ///< preempted/stalled, awaiting resume
    /** Capacity freed since the last resume sweep. */
    bool resumePending = false;
    /** Next rebalance sweep time (cluster mode). */
    TimeNs nextRebalance = kTimeNone;
    /**
     * Scheduler-loop accounting, kept incrementally so the per-event
     * serve loop does not rescan every job: jobs still Pending (with
     * the earliest arrival among them) and jobs gone terminal.
     */
    int numPending = 0;
    TimeNs nextPendingArrival = kTimeNone;
    int numTerminal = 0;
    /**
     * Event-driven engine state. `wake` holds the devices the next
     * turn must offer a step (populated by the Device completion
     * hooks plus the admit/resume/migrate-in sites); a device leaves
     * it only when a step offer makes no progress. `admissionDirty`
     * gates the admission rescan: it runs only when an arrival, a
     * ledger change, a running-set change, an iteration boundary
     * under the priority policy, or a pending setup-OOM retry could
     * alter its decisions — on every other turn the old polling
     * rescan was provably pure, so skipping it cannot change outputs.
     * (A single device under an iteration-granularity policy instead
     * rescans unconditionally at every iteration boundary.)
     * `residentJobs` caches the summed running-set size so the idle
     * test is O(1).
     */
    WakeSet wake;
    bool admissionDirty = true;
    int residentJobs = 0;
    std::uint64_t statWakeups = 0;
    std::uint64_t statFruitlessPolls = 0;
    std::uint64_t statIdleAdvances = 0;
    bool forceWakeAll = false;

    std::vector<LifecycleEvent> lifecycleLog;
    stats::TimeWeighted inflight;
    int peakInflight = 0;
    bool ran = false;

    // --- telemetry (null = off) -------------------------------------------
    obs::Counter *ctrAdmissions = nullptr;
    obs::Counter *ctrPreemptions = nullptr;
    obs::Counter *ctrMigrations = nullptr;
    obs::Counter *ctrProfiles = nullptr;
    obs::Counter *ctrPageOuts = nullptr;
    stats::Accumulator *jctAcc = nullptr;
    stats::Accumulator *preemptLatAcc = nullptr;
    stats::Histogram *iterHist = nullptr;
    /** Open preemption flow: evict (victim) -> admit (beneficiary). */
    std::uint64_t pendingPreemptFlow = 0;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_SCHEDULER_HH
