#include "serve/admission.hh"

#include "common/logging.hh"
#include "dnn/conv_algo.hh"
#include "net/network_stats.hh"

#include <algorithm>
#include <cmath>

namespace vdnn::serve
{

namespace
{

/** Distinct buffers a layer touches as inputs (concat joins repeat). */
std::vector<net::BufferId>
inputBuffers(const net::Network &net, net::LayerId id)
{
    std::vector<net::BufferId> out;
    for (net::LayerId in_id : net.node(id).inputs) {
        net::BufferId b = in_id == net::kInputLayer
                              ? net.inputBuffer()
                              : net.node(in_id).yBuffer;
        if (std::find(out.begin(), out.end(), b) == out.end())
            out.push_back(b);
    }
    return out;
}

} // namespace

FootprintEstimate
estimateFootprint(const net::Network &net, const dnn::CudnnSim &cudnn,
                  const core::MemoryPlan &plan)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(plan.buffers.size() == net.numBuffers() &&
                    plan.algos.size() == net.numLayers(),
                "plan does not match the network");

    net::NetworkStats stats(net, cudnn);

    FootprintEstimate est;

    // Persistent state, mirroring Executor::setup(): all weights, one
    // shared dW per region, the static classifier block.
    Bytes max_dw_managed = 0;
    Bytes max_dw_classifier = 0;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        Bytes w = n.spec.weightBytes();
        est.persistent += w;
        (n.classifier ? max_dw_classifier : max_dw_managed) = std::max(
            n.classifier ? max_dw_classifier : max_dw_managed, w);
    }
    est.persistent += max_dw_managed + max_dw_classifier;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (net.buffer(b).classifier)
            est.persistent += net.buffer(b).bytes();
    }
    est.persistent += stats.peakGradientBytesScoped(
        net::NetworkStats::GradScope::Classifier);

    if (plan.staticAllocation) {
        // Network-wide static allocation: every feature map, the reused
        // gradient peak and the shared max workspace are all persistent
        // (Baseline holds them even between iterations).
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
             ++b) {
            if (!net.buffer(b).classifier)
                est.persistent += net.buffer(b).bytes();
        }
        est.persistent += stats.peakGradientBytesScoped(
            net::NetworkStats::GradScope::Managed);
        est.persistent += stats.maxWorkspaceBytes(plan.algos, false);
        return est;
    }

    // Managed buffers the plan does *not* offload stay resident from
    // their forward definition to their last backward use; they are
    // part of every layer's instantaneous residency.
    Bytes resident = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        const net::Buffer &buf = net.buffer(b);
        if (!buf.classifier && !plan.offloads(b) &&
            !buf.bwdUsers.empty()) {
            resident += buf.bytes();
        }
    }

    // Largest instantaneous working set over the managed layers. The
    // forward set holds X, Y and workspace; the backward set holds the
    // gradients dY/dX plus whichever of X/Y the layer's backward
    // kernels read. Overlapped prefetches need no reservation: they
    // are opportunistic (skipped or evicted whenever a mandatory
    // allocation needs the space).
    Bytes max_working = 0;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        if (n.classifier)
            continue;
        Bytes ws = n.spec.kind == dnn::LayerKind::Conv
                       ? dnn::convWorkspaceBytes(
                             plan.algos[std::size_t(id)], n.spec)
                       : 0;
        std::vector<net::BufferId> ins = inputBuffers(net, id);
        Bytes x_bytes = 0;
        for (net::BufferId b : ins)
            x_bytes += net.buffer(b).bytes();
        Bytes y_bytes =
            n.spec.inPlace() ? 0 : net.buffer(n.yBuffer).bytes();

        Bytes fwd = ws + x_bytes + y_bytes;

        Bytes bwd = ws;
        bwd += net.buffer(n.yBuffer).bytes(); // dY
        for (net::BufferId b : ins) {
            if (b != net.inputBuffer())
                bwd += net.buffer(b).bytes(); // dX
        }
        if (n.spec.backwardNeedsX())
            bwd += x_bytes;
        if (n.spec.backwardNeedsY() && !n.spec.inPlace())
            bwd += net.buffer(n.yBuffer).bytes();

        max_working = std::max({max_working, fwd, bwd});
    }

    est.transient = resident + max_working;
    return est;
}

FootprintEstimate
estimatePlannerFootprint(const net::Network &net,
                         const dnn::CudnnSim &cudnn,
                         core::Planner &planner,
                         const core::PlannerContext &ctx)
{
    return estimateFootprint(net, cudnn,
                             planner.admissionPlan(net, ctx));
}

AdmissionController::AdmissionController(Bytes capacity, double safety_)
    : cap(capacity), safety(safety_)
{
    VDNN_ASSERT(capacity > 0, "admission capacity must be positive");
    VDNN_ASSERT(safety_ >= 1.0, "safety factor must be >= 1");
}

void
AdmissionController::refreshArena()
{
    arena = 0;
    for (const auto &[id, r] : reservations) {
        if (overlapTransients)
            arena += r.transient;
        else
            arena = std::max(arena, r.transient);
    }
}

Bytes
AdmissionController::reservationFor(const FootprintEstimate &est,
                                    double scale) const
{
    return Bytes(std::ceil(double(est.total()) * safety * scale));
}

bool
AdmissionController::fits(const Reservation &r) const
{
    Bytes with = overlapTransients ? arena + r.transient
                                   : std::max(arena, r.transient);
    return persistentSum + r.persistent + with <= cap;
}

bool
AdmissionController::canAdmit(const FootprintEstimate &est,
                              double scale) const
{
    double s = safety * scale;
    Reservation r;
    r.persistent = Bytes(std::ceil(double(est.persistent) * s));
    r.transient = Bytes(std::ceil(double(est.transient) * s));
    return fits(r);
}

bool
AdmissionController::feasible(const FootprintEstimate &est,
                              double scale) const
{
    return reservationFor(est, scale) <= cap;
}

void
AdmissionController::admit(JobId id, const FootprintEstimate &est,
                           double scale)
{
    double s = safety * scale;
    Reservation r;
    r.persistent = Bytes(std::ceil(double(est.persistent) * s));
    r.transient = Bytes(std::ceil(double(est.transient) * s));
    auto [it, inserted] = reservations.emplace(id, r);
    VDNN_ASSERT(inserted, "job %d admitted twice", id);
    persistentSum += r.persistent;
    refreshArena();
}

void
AdmissionController::release(JobId id)
{
    auto it = reservations.find(id);
    if (it != reservations.end()) {
        persistentSum -= it->second.persistent;
        reservations.erase(it);
        refreshArena();
        return;
    }
    auto ev = evictedLedger.find(id);
    VDNN_ASSERT(ev != evictedLedger.end(),
                "releasing unadmitted job %d", id);
    evictedLedger.erase(ev);
}

void
AdmissionController::evict(JobId id)
{
    auto it = reservations.find(id);
    VDNN_ASSERT(it != reservations.end(),
                "evicting unadmitted job %d", id);
    persistentSum -= it->second.persistent;
    auto [ev, inserted] = evictedLedger.emplace(id, it->second);
    VDNN_ASSERT(inserted, "job %d already on the evicted ledger", id);
    (void)ev;
    reservations.erase(it);
    refreshArena();
}

bool
AdmissionController::canReadmit(JobId id) const
{
    auto ev = evictedLedger.find(id);
    VDNN_ASSERT(ev != evictedLedger.end(),
                "readmit query for non-evicted job %d", id);
    return fits(ev->second);
}

void
AdmissionController::readmit(JobId id)
{
    auto ev = evictedLedger.find(id);
    VDNN_ASSERT(ev != evictedLedger.end(),
                "readmitting non-evicted job %d", id);
    auto [it, inserted] = reservations.emplace(id, ev->second);
    VDNN_ASSERT(inserted, "job %d already resident", id);
    (void)it;
    persistentSum += ev->second.persistent;
    evictedLedger.erase(ev);
    refreshArena();
}

Bytes
AdmissionController::updateReservation(JobId id,
                                       const FootprintEstimate &measured,
                                       double scale)
{
    auto it = reservations.find(id);
    VDNN_ASSERT(it != reservations.end(),
                "profile update for non-resident job %d", id);
    double s = safety * scale;
    Reservation m;
    m.persistent = Bytes(std::ceil(double(measured.persistent) * s));
    m.transient = Bytes(std::ceil(double(measured.transient) * s));

    Reservation &r = it->second;
    Bytes before = r.persistent + r.transient;
    Bytes new_persistent = std::min(r.persistent, m.persistent);
    persistentSum += new_persistent - r.persistent;
    r.persistent = new_persistent;
    r.transient = std::min(r.transient, m.transient);
    refreshArena();
    return before - (r.persistent + r.transient);
}

} // namespace vdnn::serve
