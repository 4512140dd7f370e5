#include "core/program_cache.hh"

#include "check/program_verifier.hh"
#include "common/logging.hh"
#include "core/executor.hh"
#include "net/network_stats.hh"

#include <algorithm>
#include <bit>

namespace vdnn::core
{

using dnn::LayerKind;

namespace
{

/** FNV-1a over 64-bit words. */
struct KeyHash
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/** Dispatch tables: kernels and tags per layer and per buffer, operand
 *  lists per op. */
void
buildDispatchTables(const net::Network &net, const dnn::CudnnSim &cudnn,
                    CompiledProgram &cp)
{
    const MemoryPlan &plan = cp.plan;
    const std::size_t n_layers = net.numLayers();
    const std::size_t n_bufs = net.numBuffers();

    // Per layer: kernel descriptors with their cost-model results and
    // names resolved once, instead of per launch.
    cp.launchPlan.assign(n_layers, {});
    for (net::LayerId id = 0; id < net::LayerId(n_layers); ++id) {
        const net::LayerNode &n = net.node(id);
        const auto &spec = n.spec;
        ExecLaunchPlan &lp = cp.launchPlan[std::size_t(id)];
        lp.classifier = n.classifier;
        auto fill = [](gpu::KernelDesc &k, std::string name,
                       const dnn::OpCost &cost) {
            k.name = std::move(name);
            k.duration = cost.time;
            k.flops = cost.flops;
            k.dramBytes = cost.dramBytes;
        };
        if (spec.kind == LayerKind::Conv) {
            dnn::ConvAlgo algo = plan.algos[std::size_t(id)];
            fill(lp.fwd, "fwd:" + spec.name,
                 cudnn.perf().convForward(spec, algo));
            fill(lp.bwdFilter, "bwdF:" + spec.name,
                 cudnn.perf().convBackwardFilter(spec, algo));
            // Data gradients are skipped for layers fed by the network
            // input: nobody consumes the input image gradient.
            lp.hasBwdData = n.xBuffer != net.inputBuffer();
            if (lp.hasBwdData) {
                fill(lp.bwdData, "bwdD:" + spec.name,
                     cudnn.perf().convBackwardData(spec, algo));
            }
            lp.wsBytes = dnn::convWorkspaceBytes(algo, spec);
        } else {
            fill(lp.fwd, "fwd:" + spec.name, cudnn.perf().forward(spec));
            fill(lp.bwdFilter, "bwd:" + spec.name,
                 cudnn.perf().backward(spec));
        }
        lp.wsTag = "ws:" + spec.name;
        lp.wsManaged = !n.classifier;
    }

    // Per buffer: sizes, compressed DMA byte counts and tag strings.
    cp.bufferPlan.assign(n_bufs, {});
    cp.initialReaders.assign(n_bufs, 0);
    for (net::BufferId b = 0; b < net::BufferId(n_bufs); ++b) {
        const net::Buffer &buf = net.buffer(b);
        ExecBufferPlan &bp = cp.bufferPlan[std::size_t(b)];
        bp.bytes = buf.bytes();
        bp.dmaBytes = plan.dmaBytes(b, bp.bytes);
        bp.fwdReleasable = buf.bwdUsers.empty() && !buf.classifier;
        bp.classifier = buf.classifier;
        bp.offloadTag = strFormat("offload:%d", b);
        bp.prefetchTag = strFormat("prefetch:%d", b);
        bp.fetchTag = strFormat("fetch:%d", b);
        bp.gradTag = strFormat("grad:%d", b);
        cp.initialReaders[std::size_t(b)] = buf.refCount;
    }

    // Per layer: the buffers whose last backward user it is.
    std::vector<std::vector<net::BufferId>> bwd_release_at(n_layers);
    for (net::BufferId b = 0; b < net::BufferId(n_bufs); ++b) {
        net::LayerId last = net.lastBwdUser(b);
        if (last != net::kInputLayer)
            bwd_release_at[std::size_t(last)].push_back(b);
    }

    // Per op: the exact operand buffers, resolved from the graph once.
    auto input_buffer = [&net](net::LayerId in_id) {
        return in_id == net::kInputLayer ? net.inputBuffer()
                                         : net.node(in_id).yBuffer;
    };
    const std::vector<IterOp> &ops = cp.program.ops;
    cp.opPlan.assign(ops.size(), {});
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const IterOp &op = ops[i];
        if (op.layer == net::kInputLayer)
            continue; // structural ops carry no operands
        ExecOpPlan &p = cp.opPlan[i];
        const net::LayerNode &n = net.node(op.layer);
        const auto &spec = n.spec;
        switch (op.kind) {
          case OpKind::Alloc:
            if (!op.backward) {
                for (net::LayerId in_id : n.inputs)
                    p.buffers.push_back(input_buffer(in_id));
                p.yBuffer = n.yBuffer;
                p.allocY = !spec.inPlace();
            } else {
                // dY first (p.yBuffer), then the dX buffers; the
                // network input receives no gradient.
                p.yBuffer = n.yBuffer;
                for (net::LayerId in_id : n.inputs) {
                    if (in_id != net::kInputLayer)
                        p.buffers.push_back(net.node(in_id).yBuffer);
                }
            }
            break;
          case OpKind::Offload:
            // The refcount rule of Fig. 3, resolved statically: the
            // plan offloads b and this layer is its last forward
            // reader (so each buffer lands in exactly one Offload op).
            for (net::LayerId in_id : n.inputs) {
                net::BufferId b = input_buffer(in_id);
                if (!plan.offloads(b))
                    continue;
                if (net.buffer(b).lastFwdReader != op.layer)
                    continue;
                if (std::find(p.buffers.begin(), p.buffers.end(), b) !=
                    p.buffers.end()) {
                    continue;
                }
                p.buffers.push_back(b);
            }
            break;
          case OpKind::OnDemandFetch:
            if (spec.backwardNeedsX()) {
                for (net::LayerId in_id : n.inputs)
                    p.buffers.push_back(input_buffer(in_id));
            }
            if (spec.backwardNeedsY())
                p.buffers.push_back(n.yBuffer);
            break;
          case OpKind::Release:
            if (!op.backward) {
                for (net::LayerId in_id : n.inputs)
                    p.buffers.push_back(input_buffer(in_id));
            } else {
                p.buffers = bwd_release_at[std::size_t(op.layer)];
                p.yBuffer = n.yBuffer;
                p.releaseDY = net.buffer(n.yBuffer).producer == op.layer;
            }
            break;
          default:
            break;
        }
    }
}

/**
 * The persistent state in allocation order. Weights: W per layer,
 * resident for the whole run. Weight gradients use a single shared
 * max-size buffer per region, with updates applied in place during
 * backward (Section IV-A). Zero-byte blocks are left out.
 */
void
buildPersistentList(const net::Network &net, const dnn::CudnnSim &cudnn,
                    CompiledProgram &cp)
{
    net::NetworkStats stats(net, cudnn);
    std::vector<PersistentAlloc> &out = cp.persistent;
    auto block = [&out](Bytes bytes, std::string tag, bool managed) {
        if (bytes > 0)
            out.push_back(PersistentAlloc{-1, bytes, std::move(tag), managed});
    };
    auto buffer = [&out](net::BufferId b) {
        out.push_back(PersistentAlloc{b, 0, {}, false});
    };

    Bytes max_dw_managed = 0;
    Bytes max_dw_classifier = 0;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        Bytes w = n.spec.weightBytes();
        if (w <= 0)
            continue;
        block(w, "W:" + n.spec.name, !n.classifier);
        Bytes &max_dw = n.classifier ? max_dw_classifier : max_dw_managed;
        max_dw = std::max(max_dw, w);
    }
    block(max_dw_managed, "dW:shared", true);
    block(max_dw_classifier, "dW:classifier", false);

    if (cp.plan.staticAllocation) {
        // Network-wide allocation (Section II-C): every feature-map
        // buffer, the minimal reused gradient buffers, and one
        // workspace buffer sized to the network maximum.
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b)
            buffer(b);
        block(stats.peakGradientBytesScoped(
                  net::NetworkStats::GradScope::Managed),
              "grad:shared", true);
        block(stats.peakGradientBytesScoped(
                  net::NetworkStats::GradScope::Classifier),
              "grad:classifier", false);
        block(stats.maxWorkspaceBytes(cp.plan.algos, false), "ws:shared",
              true);
    } else {
        // The classifier tail is executed by unmodified cuBLAS code
        // (Section IV-A): its activations and gradient maps live in a
        // static region untouched by vDNN.
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
             ++b) {
            if (net.buffer(b).classifier)
                buffer(b);
        }
        block(stats.peakGradientBytesScoped(
                  net::NetworkStats::GradScope::Classifier),
              "grad:classifier", false);
    }
}

/** Was @p cp compiled from exactly this key? */
bool
sameKey(const CompiledProgram &cp, const net::Network &net,
        const gpu::GpuSpec &gpu, const MemoryPlan &plan,
        const ExecutorConfig &cfg)
{
    return cp.network == &net &&
           cp.plan.staticAllocation == plan.staticAllocation &&
           cp.peakFlops == gpu.peakFlops &&
           cp.dramBandwidth == gpu.dramBandwidth &&
           cp.syncAtLayerBoundary == cfg.syncAtLayerBoundary &&
           cp.prefetchEnabled == cfg.prefetchEnabled &&
           cp.prefetchWindowBounded == cfg.prefetchWindowBounded &&
           cp.verification.has_value() == cfg.check.verifyPrograms &&
           cp.plan.algos == plan.algos && cp.plan.buffers == plan.buffers;
}

/** Hash of the key (equal keys hash equal). */
std::uint64_t
keyDigest(const net::Network &net, const gpu::GpuSpec &gpu,
          const MemoryPlan &plan, const ExecutorConfig &cfg)
{
    KeyHash k;
    k.add(std::uint64_t(reinterpret_cast<std::uintptr_t>(&net)));
    k.add(gpu.peakFlops);
    k.add(gpu.dramBandwidth);
    k.add(std::uint64_t(plan.staticAllocation) |
          std::uint64_t(cfg.syncAtLayerBoundary) << 1 |
          std::uint64_t(cfg.prefetchEnabled) << 2 |
          std::uint64_t(cfg.prefetchWindowBounded) << 3 |
          std::uint64_t(cfg.check.verifyPrograms) << 4);
    for (dnn::ConvAlgo a : plan.algos)
        k.add(std::uint64_t(a));
    for (const BufferDirective &d : plan.buffers) {
        k.add(std::uint64_t(d.action) | std::uint64_t(d.compressed) << 8 |
              std::uint64_t(std::uint32_t(d.prefetchPriority)) << 32);
        k.add(d.dmaScale == 0.0 ? 0.0 : d.dmaScale); // -0.0 == 0.0
    }
    return k.h;
}

} // namespace

std::shared_ptr<const CompiledProgram>
CompiledProgram::build(const net::Network &net, const dnn::CudnnSim &cudnn,
                       const MemoryPlan &plan, const ExecutorConfig &cfg)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(plan.feasible, "cannot compile an infeasible plan");
    VDNN_ASSERT(plan.algos.size() == net.numLayers(),
                "plan algo assignment size mismatch");
    VDNN_ASSERT(plan.buffers.size() == net.numBuffers(),
                "plan directive vector size mismatch");

    auto cp = std::make_shared<CompiledProgram>();
    cp->network = &net;
    cp->plan.staticAllocation = plan.staticAllocation;
    cp->plan.buffers = plan.buffers;
    cp->plan.algos = plan.algos;
    cp->peakFlops = cudnn.spec().peakFlops;
    cp->dramBandwidth = cudnn.spec().dramBandwidth;
    cp->syncAtLayerBoundary = cfg.syncAtLayerBoundary;
    cp->prefetchEnabled = cfg.prefetchEnabled;
    cp->prefetchWindowBounded = cfg.prefetchWindowBounded;

    cp->program = IterationProgram::compile(net, cp->plan, cfg);
    buildDispatchTables(net, cudnn, *cp);
    buildPersistentList(net, cudnn, *cp);
    if (cfg.check.verifyPrograms)
        cp->verification = check::verifyProgram(net, cp->plan, cfg,
                                                cp->program);
    return cp;
}

// --- ProgramCache ------------------------------------------------------------

std::shared_ptr<const CompiledProgram>
ProgramCache::get(const net::Network &net, const dnn::CudnnSim &cudnn,
                  const MemoryPlan &plan, const ExecutorConfig &cfg,
                  bool *compiled)
{
    ++numLookups;
    std::uint64_t key = keyDigest(net, cudnn.spec(), plan, cfg);
    auto [first, last] = programs.equal_range(key);
    for (auto it = first; it != last; ++it) {
        if (sameKey(*it->second, net, cudnn.spec(), plan, cfg)) {
            if (compiled)
                *compiled = false;
            return it->second;
        }
    }
    std::shared_ptr<const CompiledProgram> cp =
        CompiledProgram::build(net, cudnn, plan, cfg);
    programs.emplace(key, cp);
    ++numCompiles;
    if (compiled)
        *compiled = true;
    return cp;
}

int
ProgramCache::distinctKeys() const
{
    std::vector<const CompiledProgram *> seen;
    for (const auto &[key, cp] : programs) {
        gpu::GpuSpec gpu;
        gpu.peakFlops = cp->peakFlops;
        gpu.dramBandwidth = cp->dramBandwidth;
        ExecutorConfig cfg;
        cfg.syncAtLayerBoundary = cp->syncAtLayerBoundary;
        cfg.prefetchEnabled = cp->prefetchEnabled;
        cfg.prefetchWindowBounded = cp->prefetchWindowBounded;
        cfg.check.verifyPrograms = cp->verification.has_value();
        bool dup = std::any_of(seen.begin(), seen.end(),
                               [&](const CompiledProgram *s) {
                                   return sameKey(*s, *cp->network, gpu,
                                                  cp->plan, cfg);
                               });
        if (!dup)
            seen.push_back(cp.get());
    }
    return int(seen.size());
}

} // namespace vdnn::core
