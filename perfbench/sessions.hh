/**
 * @file
 * Isolated training sessions (core::Session on a private device) as
 * the benchmark drives them, and the paper's headline anchors.
 */

#ifndef PERFBENCH_SESSIONS_HH
#define PERFBENCH_SESSIONS_HH

#include "bench.hh"

#include "core/training_session.hh"
#include "obs/telemetry.hh"

namespace perfbench
{

/** A finished isolated session plus what its device reports. */
struct SessionRun
{
    vdnn::core::SessionResult result;
    /** Simulated time at the end of the session (its JCT). */
    vdnn::TimeNs simEnd = 0;
    vdnn::TimeNs computeBusy = 0;
    vdnn::TimeNs copyBusy = 0;
    std::uint64_t events = 0;
    /** IterationProgram ops executed (program size x iterations). */
    std::uint64_t ops = 0;
};

/**
 * runSession() with every public call in a span: setup, each
 * runIteration, teardown and result. @p tele is attached to the
 * session's device before setup (null members = off).
 */
SessionRun runIsolated(const vdnn::net::Network &net,
                       vdnn::core::SessionConfig cfg, Spans *spans,
                       vdnn::obs::Telemetry tele);

/** Average-memory reduction of vDNN_all (m) against the baseline. */
double avgMemorySaving(const vdnn::core::SessionResult &offloadAll,
                       const vdnn::core::SessionResult &baseline);

/** Loss of @p run against @p oracle (the paper's Fig. 14 metric). */
double perfLoss(const vdnn::core::SessionResult &run,
                const vdnn::core::SessionResult &oracle);

/**
 * The abstract's four anchors on the Titan X (Maxwell): average memory
 * reduction of 89% (AlexNet), 91% (OverFeat), 95% (GoogLeNet), and an
 * 18% VGG-16 (256) performance loss against the oracle.
 */
enum class Anchor
{
    AlexNetSaving,
    OverFeatSaving,
    GoogLeNetSaving,
    Vgg16Loss,
};

/** Paper value of @p a, in percent. */
double anchorPaperPct(Anchor a);

/** Mean absolute relative error (percent) of measured anchor values
 *  (percent, keyed by int(Anchor)) against the paper's. */
double paperGapPct(const std::map<int, double> &measuredPct);

} // namespace perfbench

#endif // PERFBENCH_SESSIONS_HH
