/**
 * @file
 * Per-service request inputs and answer checks. Inputs are drawn up
 * front from the workload seed; the service only ever sees the
 * encoded bodies. Every reply gets a cheap check on the completion
 * thread, and after the run a seeded sample is compared against a
 * reference computed without the service:
 *
 *  - Set Algebra: every reply must be a sorted, in-range id list; the
 *    sample must equal a term-set scan of the corpus that drops, per
 *    document, the stop words of the shard holding it (each leaf picks
 *    its own). answer_ok_frac is the share of the sample that equals
 *    the intersection over one unsharded index instead.
 *  - Router: sets must be stored; every get that finds a key must
 *    return its value, and a get of a key known written (prepopulated,
 *    or set and acknowledged before the get was issued) must find it
 *    (read-your-write).
 */

#ifndef SVCBENCH_CHECKS_H
#define SVCBENCH_CHECKS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/deployment.h"

namespace svcbench {

/** Outcome of one front-end request. */
enum class Verdict : uint8_t
{
    Pending = 0, //!< Never answered (counted as failed).
    Ok,
    Degraded,    //!< Correct, but the service flagged a partial merge.
    Failed,      //!< Transport or service error, shed included.
    Wrong,       //!< Answered, but the answer failed its check.
};

inline bool
answered(Verdict verdict)
{
    return verdict == Verdict::Ok || verdict == Verdict::Degraded;
}

/** One front-end request (compact: a segment can hold 250K of them). */
struct Record
{
    int64_t send = 0;     //!< When the request was handed to the client.
    uint32_t latNs = 0;   //!< Send → reply (saturating).
    uint8_t token = 0;    //!< ServiceCheck::onIssue result.
    Verdict verdict = Verdict::Pending;
};

/** Result of the post-run reference comparison. */
struct SampleResult
{
    double answerOkFrac = 0.0; //!< Share of the sample matching.
    uint64_t checked = 0;
    uint64_t wrong = 0;        //!< Sample answers that are wrong.
};

class ServiceCheck
{
  public:
    virtual ~ServiceCheck() = default;

    /** Front-end method id. */
    virtual uint32_t method() const = 0;

    /**
     * Draw the inputs of one run: `count` requests (a pool, reused
     * round-robin when the run issues more) from `seed`, forgetting
     * any state the previous run left.
     */
    virtual void prepare(uint64_t seed, size_t count) = 0;

    /** Encoded body of request `seq` (the pool repeats if short). */
    const std::string &
    body(size_t seq) const
    {
        return bodies[seq % bodies.size()];
    }

    /** Issuing thread, right before request `seq` is sent. */
    virtual uint8_t onIssue(size_t seq) { (void)seq; return 0; }

    /** Completion thread: check the reply to request `seq`. */
    virtual Verdict onReply(size_t seq, uint8_t token,
                            std::string_view payload) = 0;

    /** Compare the seeded sample of answered requests in [from, to). */
    virtual SampleResult checkSample(const Record *records, size_t from,
                                     size_t to) = 0;

    /**
     * Self-test: corrupt one correct answer from [from, to) and return
     * true only if the checks reject it (and accept the original).
     */
    virtual bool rejectsCorruption(const Record *records, size_t from,
                                   size_t to) = 0;

    /** Router requests: 0 get, 1 set; -1 for other services. */
    virtual int kvOp(size_t seq) const { (void)seq; return -1; }

  protected:
    std::vector<std::string> bodies;
};

/** The references for one service; call prepare() before each run. */
std::unique_ptr<ServiceCheck> makeCheck(
    musuite::ServiceKind kind, const musuite::DeploymentOptions &options);

} // namespace svcbench

#endif // SVCBENCH_CHECKS_H
