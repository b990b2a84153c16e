/**
 * @file
 * Inputs and answer checks for Set Algebra and Router.
 */

#include "checks.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "base/logging.h"
#include "base/rng.h"
#include "index/postings.h"
#include "serde/wire.h"
#include "services/router/proto.h"
#include "services/setalgebra/proto.h"

namespace svcbench {

using namespace musuite;

namespace {

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** About one request in 16, chosen by the seed. */
bool
sampled(uint64_t seed, size_t seq)
{
    return splitmix(seed ^ splitmix(seq)) % 16 == 0;
}

// --------------------------------------------------------------------
// Set Algebra
// --------------------------------------------------------------------

class SetAlgebraCheck final : public ServiceCheck
{
  public:
    explicit SetAlgebraCheck(const DeploymentOptions &options)
        : corpus(options.corpus), unsharded(makeIndex(options, 1, 0))
    {
        // Stop lists are per shard: each leaf drops its own most
        // frequent terms, exactly as the deployment builds them.
        for (uint32_t s = 0; s < options.leafShards; ++s)
            shardIndexes.push_back(makeIndex(options, options.leafShards, s));
        const auto &docs = corpus.documents();
        docTerms.resize(docs.size());
        for (uint32_t d = 0; d < docs.size(); ++d) {
            docTerms[d] = docs[d];
            std::sort(docTerms[d].begin(), docTerms[d].end());
            docTerms[d].erase(
                std::unique(docTerms[d].begin(), docTerms[d].end()),
                docTerms[d].end());
            for (uint32_t term : docTerms[d])
                docsWith[term].push_back(d);
        }
    }

    uint32_t method() const override { return setalgebra::kSearch; }

    void
    prepare(uint64_t seed_in, size_t count) override
    {
        seed = seed_in;
        Rng rng(splitmix(seed));
        queries.clear();
        bodies.clear();
        stash.assign(count, std::string());
        for (size_t i = 0; i < count; ++i) {
            setalgebra::SearchQuery query;
            query.terms = corpus.sampleQuery(rng);
            bodies.push_back(encodeMessage(query));
            queries.push_back(std::move(query.terms));
        }
    }

    Verdict
    onReply(size_t seq, uint8_t, std::string_view payload) override
    {
        const Verdict verdict = judge(payload);
        if (answered(verdict) && seq < stash.size() && sampled(seed, seq))
            stash[seq].assign(payload);
        return verdict;
    }

    SampleResult
    checkSample(const Record *records, size_t from, size_t to) override
    {
        SampleResult result;
        uint64_t unsharded_equal = 0;
        for (size_t seq = from; seq < std::min(to, stash.size()); ++seq) {
            if (!sampled(seed, seq) || !answered(records[seq].verdict))
                continue;
            ++result.checked;
            if (!matchesReference(seq, stash[seq]))
                ++result.wrong;
            setalgebra::PostingReply reply;
            if (decodeMessage(stash[seq], reply) &&
                reply.docIds == unsharded.intersectTerms(queries[seq])) {
                ++unsharded_equal;
            }
        }
        result.answerOkFrac =
            result.checked
                ? double(unsharded_equal) / double(result.checked)
                : 0.0;
        return result;
    }

    bool
    rejectsCorruption(const Record *records, size_t from,
                      size_t to) override
    {
        for (size_t seq = from; seq < std::min(to, stash.size()); ++seq) {
            if (!sampled(seed, seq) || !answered(records[seq].verdict))
                continue;
            setalgebra::PostingReply reply;
            MUSUITE_CHECK(decodeMessage(stash[seq], reply));
            // Drop a matching document, or invent one.
            if (reply.docIds.empty())
                reply.docIds.push_back(0);
            else
                reply.docIds.erase(reply.docIds.begin());
            return matchesReference(seq, stash[seq]) &&
                   !matchesReference(seq, encodeMessage(reply));
        }
        return false;
    }

  private:
    /** Index over shard `shard` of `shards` (round-robin documents). */
    InvertedIndex
    makeIndex(const DeploymentOptions &options, uint32_t shards,
              uint32_t shard) const
    {
        std::vector<std::vector<uint32_t>> docs;
        std::vector<uint32_t> ids;
        for (uint32_t d = shard; d < corpus.size(); d += shards) {
            docs.push_back(corpus.documents()[d]);
            ids.push_back(d);
        }
        return InvertedIndex(docs, ids, options.stopTerms);
    }

    Verdict
    judge(std::string_view payload) const
    {
        setalgebra::PostingReply reply;
        if (!decodeMessage(payload, reply))
            return Verdict::Wrong;
        for (size_t i = 0; i < reply.docIds.size(); ++i) {
            if (reply.docIds[i] >= corpus.size() ||
                (i > 0 && reply.docIds[i] <= reply.docIds[i - 1])) {
                return Verdict::Wrong;
            }
        }
        return reply.degraded ? Verdict::Degraded : Verdict::Ok;
    }

    /**
     * Documents holding every query term that is not a stop word of
     * their shard, found by scanning term sets rather than through
     * posting-list intersection.
     */
    std::vector<uint32_t>
    expected(size_t seq) const
    {
        const std::vector<uint32_t> &terms = queries[seq];
        std::vector<uint32_t> out;
        const uint32_t shards = uint32_t(shardIndexes.size());
        for (uint32_t s = 0; s < shards; ++s) {
            std::vector<uint32_t> required;
            for (uint32_t term : terms) {
                if (!shardIndexes[s].isStopWord(term))
                    required.push_back(term);
            }
            if (required.empty())
                continue; // All stop words: the shard answers nothing.
            auto it = docsWith.find(required[0]);
            if (it == docsWith.end())
                continue;
            for (uint32_t d : it->second) {
                if (d % shards != s)
                    continue;
                bool all = true;
                for (uint32_t term : required) {
                    all = all && std::binary_search(docTerms[d].begin(),
                                                    docTerms[d].end(),
                                                    term);
                }
                if (all)
                    out.push_back(d);
            }
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    bool
    matchesReference(size_t seq, std::string_view payload) const
    {
        setalgebra::PostingReply reply;
        return answered(judge(payload)) && decodeMessage(payload, reply) &&
               reply.docIds == expected(seq);
    }

    TextCorpus corpus;
    InvertedIndex unsharded; //!< One index over the whole corpus.
    std::vector<InvertedIndex> shardIndexes; //!< For their stop lists.
    std::vector<std::vector<uint32_t>> docTerms; //!< Sorted, unique.
    std::unordered_map<uint32_t, std::vector<uint32_t>> docsWith;
    uint64_t seed = 0;
    std::vector<std::vector<uint32_t>> queries;
    std::vector<std::string> stash;
};

// --------------------------------------------------------------------
// Router
// --------------------------------------------------------------------

class RouterCheck final : public ServiceCheck
{
  public:
    /** onIssue tokens. */
    enum Token : uint8_t { kSet = 0, kGetKnown = 1, kGetMaybe = 2 };

    explicit RouterCheck(const DeploymentOptions &options)
        : kv(options.kv),
          prepopulated(std::min<size_t>(options.prepopulateKeys,
                                        options.kv.numKeys)),
          written(new std::atomic<uint8_t>[options.kv.numKeys]())
    {
        const KvWorkload workload(kv);
        values.reserve(kv.numKeys);
        for (size_t key = 0; key < kv.numKeys; ++key)
            values.push_back(workload.valueFor(workload.keyAt(key)));
    }

    uint32_t method() const override { return router::kRoute; }

    void
    prepare(uint64_t seed, size_t count) override
    {
        for (size_t key = 0; key < kv.numKeys; ++key)
            written[key].store(0, std::memory_order_relaxed);
        // The distribution KvWorkload::sampleOp draws from, keeping
        // the key index so replies can be checked.
        const KvWorkload workload(kv);
        const ZipfSampler keys(kv.numKeys, kv.zipfExponent);
        Rng rng(splitmix(seed));
        ops.clear();
        bodies.clear();
        for (size_t i = 0; i < count; ++i) {
            Op op;
            op.key = uint32_t(keys.sample(rng) - 1);
            op.isGet = rng.nextBool(kv.getFraction);
            router::KvRequest request;
            request.op = op.isGet ? router::Op::Get : router::Op::Set;
            request.key = workload.keyAt(op.key);
            if (!op.isGet)
                request.value = values[op.key];
            bodies.push_back(encodeMessage(request));
            ops.push_back(op);
        }
    }

    int kvOp(size_t seq) const override { return opOf(seq).isGet ? 0 : 1; }

    uint8_t
    onIssue(size_t seq) override
    {
        const Op &op = opOf(seq);
        if (!op.isGet)
            return kSet;
        return op.key < prepopulated ||
                       written[op.key].load(std::memory_order_acquire)
                   ? kGetKnown
                   : kGetMaybe;
    }

    Verdict
    onReply(size_t seq, uint8_t token, std::string_view payload) override
    {
        const Verdict verdict = judge(seq, token, payload);
        if (token == kSet && answered(verdict))
            written[opOf(seq).key].store(1, std::memory_order_release);
        return verdict;
    }

    SampleResult
    checkSample(const Record *records, size_t from, size_t to) override
    {
        // The sample is every get of a key known written when issued;
        // wrong answers were already counted on the completion thread.
        SampleResult result;
        uint64_t matched = 0;
        for (size_t seq = from; seq < to; ++seq) {
            const Record &record = records[seq];
            if (record.token != kGetKnown)
                continue;
            if (answered(record.verdict))
                ++matched;
            else if (record.verdict != Verdict::Wrong)
                continue;
            ++result.checked;
        }
        result.answerOkFrac =
            result.checked ? double(matched) / double(result.checked)
                           : 0.0;
        return result;
    }

    bool
    rejectsCorruption(const Record *records, size_t from,
                      size_t to) override
    {
        for (size_t seq = from; seq < to; ++seq) {
            if (records[seq].token != kGetKnown ||
                !answered(records[seq].verdict)) {
                continue;
            }
            router::KvReply reply;
            reply.found = true;
            reply.value = values[opOf(seq).key];
            const bool accepts =
                answered(judge(seq, kGetKnown, encodeMessage(reply)));
            reply.value[0] ^= 1;
            return accepts && judge(seq, kGetKnown, encodeMessage(reply)) ==
                                  Verdict::Wrong;
        }
        return false;
    }

  private:
    struct Op
    {
        uint32_t key = 0;
        bool isGet = true;
    };

    const Op &opOf(size_t seq) const { return ops[seq % ops.size()]; }

    Verdict
    judge(size_t seq, uint8_t token, std::string_view payload) const
    {
        router::KvReply reply;
        if (!decodeMessage(payload, reply))
            return Verdict::Wrong;
        const Op &op = opOf(seq);
        const bool right =
            !op.isGet ? reply.found
            : reply.found ? reply.value == values[op.key]
                          : token != kGetKnown;
        if (!right)
            return Verdict::Wrong;
        return reply.degraded ? Verdict::Degraded : Verdict::Ok;
    }

    KvWorkloadOptions kv;
    size_t prepopulated;
    std::vector<std::string> values; //!< By key index.
    std::unique_ptr<std::atomic<uint8_t>[]> written; //!< Set acked.
    std::vector<Op> ops;
};

} // namespace

std::unique_ptr<ServiceCheck>
makeCheck(ServiceKind kind, const DeploymentOptions &options)
{
    switch (kind) {
      case ServiceKind::SetAlgebra:
        return std::make_unique<SetAlgebraCheck>(options);
      case ServiceKind::Router:
        return std::make_unique<RouterCheck>(options);
      case ServiceKind::HdSearch:
      case ServiceKind::Recommend:
        break;
    }
    MUSUITE_PANIC() << "no checks for " << serviceName(kind);
    return nullptr;
}

} // namespace svcbench
