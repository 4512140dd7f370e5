#include "sessions.hh"

#include "core/planner.hh"
#include "gpu/gpu_spec.hh"

#include <cmath>

namespace perfbench
{

using namespace vdnn;

SessionRun
runIsolated(const net::Network &net, core::SessionConfig cfg,
            Spans *spans, obs::Telemetry tele)
{
    int iterations = cfg.iterations;
    core::Session session(net, std::move(cfg));
    if (tele.trace || tele.metrics)
        session.runtime().setTelemetry(tele);

    SessionRun out;
    std::string iterationFailure;
    if (traced(spans, "core.setup", [&] { return session.setup(); })) {
        out.ops = std::uint64_t(session.program().size()) *
                  std::uint64_t(iterations);
        for (int i = 0; i < iterations; ++i) {
            core::IterationResult r = traced(
                spans, "core.iteration",
                [&] { return session.runIteration(); });
            if (!r.ok) {
                iterationFailure = r.failReason;
                break;
            }
        }
        traced(spans, "core.teardown", [&] { session.teardown(); });
    }
    out.result = traced(spans, "core.result",
                        [&] { return session.result(); });
    if (!iterationFailure.empty()) {
        out.result.trainable = false;
        out.result.failReason = iterationFailure;
    }
    gpu::Runtime &rt = session.runtime();
    out.simEnd = rt.now();
    out.computeBusy = rt.computeBusyTime();
    out.copyBusy = rt.copyBusyTime(gpu::CopyDir::HostToDevice) +
                   rt.copyBusyTime(gpu::CopyDir::DeviceToHost);
    out.events = rt.clock().executed();
    return out;
}

double
avgMemorySaving(const core::SessionResult &offloadAll,
                const core::SessionResult &baseline)
{
    return 1.0 - double(offloadAll.avgManagedUsage) /
                     double(baseline.avgManagedUsage);
}

double
perfLoss(const core::SessionResult &run, const core::SessionResult &oracle)
{
    return 1.0 - double(oracle.featureExtractionTime) /
                     double(run.featureExtractionTime);
}

double
anchorPaperPct(Anchor a)
{
    switch (a) {
      case Anchor::AlexNetSaving:
        return 89.0;
      case Anchor::OverFeatSaving:
        return 91.0;
      case Anchor::GoogLeNetSaving:
        return 95.0;
      case Anchor::Vgg16Loss:
        return 18.0;
    }
    return 0.0;
}

double
paperGapPct(const std::map<int, double> &measuredPct)
{
    double sum = 0.0;
    for (const auto &[anchor, pct] : measuredPct) {
        double paper = anchorPaperPct(Anchor(anchor));
        sum += std::fabs(pct - paper) / paper;
    }
    return measuredPct.empty() ? 0.0
                               : 100.0 * sum / double(measuredPct.size());
}

} // namespace perfbench
