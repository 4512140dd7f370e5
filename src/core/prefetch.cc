#include "core/prefetch.hh"

#include "common/logging.hh"

#include <algorithm>

namespace vdnn::core
{

void
findPrefetchLayer(const net::Network &net, net::LayerId curr_layer,
                  PrefetchState &state, PrefetchCandidate &cand,
                  bool bounded, const MemoryPlan *plan)
{
    VDNN_ASSERT(state.offloaded.size() == net.numBuffers() &&
                    state.prefetched.size() == net.numBuffers(),
                "prefetch state size mismatch");

    cand.layer = net::kInputLayer;
    std::vector<net::BufferId> &bufs = cand.buffers;
    bufs.clear();
    const auto &topo = net.topoOrder();
    int curr_idx = net.node(curr_layer).topoIndex;

    // Search all preceding layers, nearest first (Fig. 10 line 06).
    for (int idx = curr_idx - 1; idx >= 0; --idx) {
        net::LayerId id = topo[std::size_t(idx)];
        const net::LayerNode &n = net.node(id);

        // Gather this layer's input buffers that were offloaded and not
        // yet prefetched (Fig. 10 line 08).
        for (net::LayerId in_id : n.inputs) {
            net::BufferId b = in_id == net::kInputLayer
                                  ? net.inputBuffer()
                                  : net.node(in_id).yBuffer;
            if (plan && plan->directive(b).prefetchPriority < 0)
                continue; // hinted out of overlapped prefetching
            if (state.offloaded[std::size_t(b)] &&
                !state.prefetched[std::size_t(b)]) {
                if (std::find(bufs.begin(), bufs.end(), b) == bufs.end())
                    bufs.push_back(b);
            }
        }
        if (!bufs.empty()) {
            // Issue order within the hit layer: descending priority
            // hint, stable so equal priorities keep input order. A
            // layer has a handful of inputs, so an in-place insertion
            // sort does it without a temporary buffer.
            if (plan) {
                for (std::size_t i = 1; i < bufs.size(); ++i) {
                    net::BufferId b = bufs[i];
                    int prio = plan->directive(b).prefetchPriority;
                    std::size_t j = i;
                    for (; j > 0 &&
                           plan->directive(bufs[j - 1]).prefetchPriority <
                               prio;
                         --j) {
                        bufs[j] = bufs[j - 1];
                    }
                    bufs[j] = b;
                }
            }
            // Flag as being prefetched by the current layer (line 10).
            for (net::BufferId b : bufs)
                state.prefetched[std::size_t(b)] = true;
            cand.layer = id;
            return;
        }

        // Reached the end of the search window without a candidate
        // (Fig. 10 line 14).
        if (bounded && n.spec.kind == dnn::LayerKind::Conv)
            return;
    }
}

} // namespace vdnn::core
