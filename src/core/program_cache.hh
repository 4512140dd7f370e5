/**
 * @file
 * CompiledProgram and ProgramCache — compile each (network, plan,
 * device) once and share the result.
 *
 * vDNN_dyn settles its offload/prefetch policy in profiling passes at
 * the start of training and reuses it for every iteration. The same
 * holds one level down: everything an Executor derives from its
 * (Network, MemoryPlan, device, ExecutorConfig) key — the
 * IterationProgram, the flat dispatch tables the stepper walks, the
 * initial forward refcounts and the ordered persistent-allocation list
 * setup() replays — is a pure function of that key. CompiledProgram
 * bundles it into one immutable object, and ProgramCache hands out one
 * shared instance per distinct key.
 *
 * The serve-layer Scheduler owns one ProgramCache for the run and
 * passes it to every tenant through core::SharedGpu, so admissions,
 * resumes, migrations and in-place re-plans of tenants running the
 * same network under the same plan on the same kind of device reuse
 * one program (and, in checked builds, one ProgramVerifier pass). The
 * cache is scoped to the run rather than the process: its keys hold
 * network addresses, which are stable only while the run's job specs
 * keep the networks alive. An Executor built without a cache
 * (exclusive sessions, vDNN_dyn trials, tests) compiles privately.
 * Either way the Executor holds a shared_ptr, so a program outlives
 * the cache that built it for as long as an Executor runs it.
 */

#ifndef VDNN_CORE_PROGRAM_CACHE_HH
#define VDNN_CORE_PROGRAM_CACHE_HH

#include "check/check.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/device.hh"
#include "net/network.hh"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace vdnn::core
{

struct ExecutorConfig;

/**
 * Pre-resolved dispatch tables (the flat-dispatch layer). The
 * IterationProgram stays the verifiable IR (src/check interprets it);
 * these tables cache, per layer / per buffer / per op, everything the
 * IR's semantics determine statically — kernel descriptors with their
 * costs resolved, DMA tags and compressed byte counts, and the exact
 * buffer lists each op touches — so the stepper's per-op work is a
 * table walk, not graph traversal plus string formatting.
 */
struct ExecLaunchPlan
{
    /** Forward kernel, cost and name resolved against the plan algo. */
    gpu::KernelDesc fwd;
    /** Backward filter-gradient kernel (the only one for non-conv). */
    gpu::KernelDesc bwdFilter;
    /** Backward data-gradient kernel (conv with non-input X only). */
    gpu::KernelDesc bwdData;
    bool hasBwdData = false;
    /** Conv workspace for the plan's algorithm (0 for non-conv). */
    Bytes wsBytes = 0;
    std::string wsTag;
    bool wsManaged = false;
    bool classifier = false;
};

struct ExecBufferPlan
{
    Bytes bytes = 0;
    /** Bytes crossing PCIe per transfer (compression applied). */
    Bytes dmaBytes = 0;
    /** No backward reuse, not classifier: free after last fwd read. */
    bool fwdReleasable = false;
    /** Lives in the static classifier region (no managed gradient). */
    bool classifier = false;
    std::string offloadTag;
    std::string prefetchTag;
    std::string fetchTag;
    std::string gradTag;
};

/** Per-op resolved operands, aligned index-for-index with program.ops. */
struct ExecOpPlan
{
    /**
     * The buffers this op touches: forward Alloc = input feature maps
     * (residency preconditions); Offload = inputs the plan offloads
     * whose last forward reader is this layer (deduplicated); Fetch =
     * X/Y operands backward needs resident; backward Alloc = the dX
     * gradient buffers; Release = forward input buffers (refcount
     * drops) or the backward release set (last backward user here).
     */
    std::vector<net::BufferId> buffers;
    /** The layer's output buffer (Alloc ops). */
    net::BufferId yBuffer = -1;
    /** Forward Alloc materializes yBuffer (not in-place). */
    bool allocY = false;
    /** Backward Release frees dY (this layer produced yBuffer). */
    bool releaseDY = false;
};

/**
 * One allocation of the persistent state, in the order
 * Executor::setup() makes them: weights, the shared dW blocks, then
 * either the classifier block or (static plans) every feature map,
 * followed by the gradient and workspace regions.
 */
struct PersistentAlloc
{
    /** Feature-map buffer to materialize, or -1 for a tagged block. */
    net::BufferId buffer = -1;
    Bytes bytes = 0;
    std::string tag;
    bool managed = false;
};

/**
 * Everything an Executor derives from its key, built once. Immutable
 * after build(); shared by every Executor running the same key.
 */
struct CompiledProgram
{
    // --- the key ---------------------------------------------------------
    const net::Network *network = nullptr;
    /** Directives, algorithms and allocation style of the source plan
     *  (provenance and trial history are not part of the key). */
    MemoryPlan plan;
    /** The device-spec fields the kernel cost model reads. */
    double peakFlops = 0.0;
    double dramBandwidth = 0.0;
    /** The ExecutorConfig fields compile and verification read (and
     *  cfg.check.verifyPrograms: verification.has_value()). */
    bool syncAtLayerBoundary = true;
    bool prefetchEnabled = true;
    bool prefetchWindowBounded = true;

    // --- what compile derives ---------------------------------------------
    IterationProgram program;
    std::vector<ExecLaunchPlan> launchPlan; // per layer
    std::vector<ExecBufferPlan> bufferPlan; // per buffer
    std::vector<ExecOpPlan> opPlan;         // aligned with program.ops
    /** Initial forward refcounts, copied into each iteration's state. */
    std::vector<int> initialReaders;
    std::vector<PersistentAlloc> persistent;
    /** ProgramVerifier result (when cfg.check.verifyPrograms). */
    std::optional<check::CheckResult> verification;

    /** Compile @p plan for @p net on @p cudnn's device under @p cfg. */
    static std::shared_ptr<const CompiledProgram>
    build(const net::Network &net, const dnn::CudnnSim &cudnn,
          const MemoryPlan &plan, const ExecutorConfig &cfg);
};

/**
 * One CompiledProgram per distinct key, for the lifetime of the cache
 * (a serving run). Lookups hash the key and confirm a hit by comparing
 * it field by field.
 */
class ProgramCache
{
  public:
    /**
     * The program for (@p net, @p plan, @p cudnn's device, @p cfg),
     * compiled on the first request for that key. @p compiled, when
     * given, reports whether this call compiled it.
     */
    std::shared_ptr<const CompiledProgram>
    get(const net::Network &net, const dnn::CudnnSim &cudnn,
        const MemoryPlan &plan, const ExecutorConfig &cfg,
        bool *compiled = nullptr);

    /** Programs compiled (cache misses). */
    int compiles() const { return numCompiles; }
    /** Requests served, hits and misses. */
    std::uint64_t lookups() const { return numLookups; }
    /**
     * Distinct keys among the cached programs, counted by full key
     * comparison independently of the hash. Equals compiles() unless
     * a key the lookup should have matched was compiled twice.
     */
    int distinctKeys() const;

  private:
    std::unordered_multimap<std::uint64_t,
                            std::shared_ptr<const CompiledProgram>>
        programs;
    int numCompiles = 0;
    std::uint64_t numLookups = 0;
};

} // namespace vdnn::core

#endif // VDNN_CORE_PROGRAM_CACHE_HH
