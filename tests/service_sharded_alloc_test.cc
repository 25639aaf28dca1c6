/**
 * @file
 * A sharded worker whose copy of its slice text fails to allocate.
 * Workers copy their piece out of the caller's request after claiming
 * the slice; a copy that throws must resolve the slice as a typed
 * shard failure and free its slot, never leave serve() waiting on a
 * slice nobody will answer. This binary replaces the global operator
 * new so a test can make every worker-thread allocation of one exact
 * size throw std::bad_alloc; the hook sits in a binary of its own so
 * no other test runs under it. Run under ASan and TSan by
 * scripts/check.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/reference.hh"
#include "service/sharded.hh"
#include "tests/helpers.hh"

namespace
{

/** Allocation size that fails on worker threads; 0 = disarmed. */
std::atomic<std::size_t> failSize{0};
/** Allocations the hook has failed so far. */
std::atomic<unsigned> failures{0};
/** The test thread (serve()'s caller), whose allocations never fail. */
std::thread::id callerThread;

} // namespace

// GCC flags free() in a replaced operator delete as a mismatch with
// operator new, not seeing that this operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (size != 0 && size == failSize.load(std::memory_order_relaxed) &&
        std::this_thread::get_id() != callerThread) {
        failures.fetch_add(1, std::memory_order_relaxed);
        throw std::bad_alloc();
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace spm::service
{
namespace
{

/** The sharded service on a one-rung software ladder. */
ShardedConfig
allocShardConfig(std::uint32_t batch_deadline_ms)
{
    ShardedConfig cfg;
    cfg.base.alphabetBits = 2;
    cfg.base.maxTextLen = 1 << 20;
    cfg.base.crossCheck = false;
    cfg.base.journalEnabled = false;
    cfg.threads = 4;
    cfg.spareShards = 1;
    cfg.minShardChars = 24;
    cfg.batchDeadlineMs = batch_deadline_ms;
    return cfg;
}

ShardedMatchService::LadderFactory
softwareFactory()
{
    return [](const ServiceConfig &) {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<SoftwareBackend>());
        return ladder;
    };
}

TEST(ShardedAlloc, FailedSliceCopyIsRetriedOnASpare)
{
    // 4002 chars, k = 5, four slices: result starts 0, 1000, 2001,
    // 3001 and a k-1 = 4 char overlap each side, so slice 1's piece is
    // [996, 2005) -- 1009 symbols, a size no other slice has.
    callerThread = std::this_thread::get_id();
    const test::Workload w = test::makeShapedWorkload(0xA11C, 2, 4002, 5, 20);
    MatchRequest req;
    req.id = 7;
    req.text = w.text;
    req.pattern = w.pattern;
    const std::vector<bool> want =
        core::ReferenceMatcher().match(req.text, req.pattern);
    const std::size_t slice1_bytes = 1009 * sizeof(Symbol);

    // 0 waits for the primary wave forever: a slice left unresolved
    // would hang here rather than time out.
    for (const std::uint32_t deadline_ms : {0u, 2000u}) {
        SCOPED_TRACE("batchDeadlineMs " + std::to_string(deadline_ms));
        ShardedMatchService sharded(allocShardConfig(deadline_ms),
                                    softwareFactory());
        ASSERT_EQ(sharded.shardCountFor(req.text.size(),
                                        req.pattern.size()),
                  4u);

        failures = 0;
        failSize = slice1_bytes;
        const MatchResponse resp = sharded.serve(req);
        failSize = 0;

        // The worker's copy failed, the slice resolved as a thrown
        // shard task, and the caller rebuilt it on the spare.
        EXPECT_GE(failures.load(), 1u);
        ASSERT_TRUE(resp.ok()) << resp.error.toString();
        EXPECT_EQ(resp.result, want);
        bool slice1_threw = false;
        for (const ShardError &e : sharded.lastShardErrors())
            if (e.slice == 1 && e.kind == ShardFaultKind::Exception &&
                e.detail.find("bad_alloc") != std::string::npos)
                slice1_threw = true;
        EXPECT_TRUE(slice1_threw);
        EXPECT_GE(sharded.metricsSnapshot().counterValue(
                      "sharded.shard_retries"),
                  1u);

        // Every slot lease came back: the next serve uses all four
        // primary slots and needs no retry.
        const MatchResponse again = sharded.serve(req);
        ASSERT_TRUE(again.ok()) << again.error.toString();
        EXPECT_EQ(again.result, want);
        EXPECT_EQ(sharded.lastShards(), 4u);
        EXPECT_TRUE(sharded.lastShardErrors().empty());
    }
}

} // namespace
} // namespace spm::service
