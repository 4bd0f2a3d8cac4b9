// Distributed-solver contracts that need their own binary: the
// zero-steady-state-allocation guarantee of step() and total_mass() is
// checked with a global operator-new counter (the same pattern as
// test_obs.cpp's zero-cost-when-off test, and the two counters cannot
// share one process), plus the decomposition-invariance matrix, the
// communicator drain/deadlock contracts, the load balancer's exact
// state carryover, and the halo byte accounting (per phase, per rank,
// and per traced message edge).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "par/comm.hpp"
#include "par/dist_shallow.hpp"

using namespace tp;

// ------------------------------------------------- allocation bookkeeping

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// Out of line: inlined, GCC sees free() take a pointer from the operator
// new above and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

template <typename P>
par::DistributedShallowSolver<P> make_solver(int grid, int ranks,
                                             bool overlap,
                                             int lb_interval = 0) {
    par::DistConfig cfg;
    cfg.nx = cfg.ny = grid;
    cfg.ranks = ranks;
    cfg.overlap = overlap;
    cfg.lb_interval = lb_interval;
    return par::DistributedShallowSolver<P>(cfg);
}

template <typename P>
std::vector<double> height_after(int grid, int steps, int ranks,
                                 bool overlap, int lb_interval = 0) {
    auto s = make_solver<P>(grid, ranks, overlap, lb_interval);
    s.initialize_dam_break();
    s.run(steps);
    EXPECT_TRUE(s.comm_drained());
    return s.gather_height();
}

// The halo exchange's buffer pool, the swap buffers, and every scratch
// vector are sized by the first steps; after that the steady state of
// step() — and of the total_mass() diagnostic — must perform zero heap
// allocations, in every schedule and at every rank count.
TEST(DistAllocations, SteadyStateStepIsAllocationFree) {
    for (const bool overlap : {false, true}) {
        auto s = make_solver<fp::MixedPrecision>(32, 3, overlap);
        s.initialize_dam_break();
        s.run(3);  // warm the comm pool and every lazy scratch buffer
        (void)s.total_mass();
        const std::uint64_t before = g_allocs.load();
        s.run(5);
        (void)s.total_mass();
        EXPECT_EQ(g_allocs.load(), before)
            << (overlap ? "overlap" : "BSP") << " schedule allocated in "
            << "steady state";
        EXPECT_TRUE(s.comm_drained());
    }
}

// The rebalance path reuses persistent carry buffers too: a re-split may
// reallocate rank stripes (allowed — the partition changed), but a
// uniform-cost evaluation that moves nothing must stay allocation-free.
TEST(DistAllocations, UniformRebalanceIsAllocationFree) {
    auto s = make_solver<fp::FullPrecision>(32, 4, true);
    s.initialize_dam_break();
    s.run(2);
    const std::vector<double> uniform(32, 1.0);
    s.rebalance(uniform);  // warm: the evaluation itself moves no rows
    const std::uint64_t before = g_allocs.load();
    s.rebalance(uniform);
    EXPECT_EQ(g_allocs.load(), before);
    EXPECT_EQ(s.lb_stats().resplits, 0u);
}

// Decomposition-invariance matrix: the height field must repeat to the
// last bit across rank counts (1, R, one-row-per-rank) and both
// schedules, for every precision policy — the contract the overlapped
// pipeline and the halo path hang off. The 1-rank BSP run is the
// reference. (bench/table_dist_scaling gates the same property at larger
// sizes; this is the fast in-suite version.)
template <typename P>
void invariance_matrix() {
    const int grid = 24, steps = 12;
    const auto ref = height_after<P>(grid, steps, 1, false);
    for (const int ranks : {2, 3, grid})
        for (const bool overlap : {false, true})
            EXPECT_EQ(height_after<P>(grid, steps, ranks, overlap), ref)
                << ranks << " ranks, overlap=" << overlap;
}

TEST(DistInvariance, MinimumPrecision) {
    invariance_matrix<fp::MinimumPrecision>();
}
TEST(DistInvariance, MixedPrecision) {
    invariance_matrix<fp::MixedPrecision>();
}
TEST(DistInvariance, FullPrecision) {
    invariance_matrix<fp::FullPrecision>();
}

// Lake at rest: a uniform depth with zero momentum is an exact steady
// state of the scheme (each face carries the same pressure flux on both
// sides and no mass or tangential flux), so the depth must hold bit for
// bit at every rank count and schedule, through the halo rows and the
// mirror walls.
template <typename P>
void lake_at_rest() {
    const auto depth =
        static_cast<double>(static_cast<typename P::storage_t>(7.3));
    for (const int ranks : {1, 3})
        for (const bool overlap : {false, true}) {
            auto s = make_solver<P>(24, ranks, overlap);
            s.initialize_dam_break(7.3, 7.3, 0.2);
            s.run(30);
            for (const double h : s.gather_height())
                ASSERT_EQ(h, depth)
                    << ranks << " ranks, overlap=" << overlap;
        }
}

TEST(DistLakeAtRest, MinimumPrecision) {
    lake_at_rest<fp::MinimumPrecision>();
}
TEST(DistLakeAtRest, MixedPrecision) {
    lake_at_rest<fp::MixedPrecision>();
}
TEST(DistLakeAtRest, FullPrecision) { lake_at_rest<fp::FullPrecision>(); }

// Periodic measured-cost rebalancing is bitwise invisible as well — the
// re-split carries every row over exactly.
TEST(DistInvariance, PeriodicLoadBalancingDoesNotChangeState) {
    const auto ref = height_after<fp::MixedPrecision>(
        24, 12, 3, true, /*lb_interval=*/0);
    EXPECT_EQ(height_after<fp::MixedPrecision>(24, 12, 3, true,
                                               /*lb_interval=*/4),
              ref);
}

// Forced skewed re-split mid-run: rows change owners, the solution does
// not change bits relative to an undisturbed run.
TEST(DistLoadBalance, SkewedResplitCarriesStateExactly) {
    const int grid = 24;
    auto undisturbed = make_solver<fp::FullPrecision>(grid, 3, true);
    undisturbed.initialize_dam_break();
    undisturbed.run(10);

    auto resplit = make_solver<fp::FullPrecision>(grid, 3, true);
    resplit.initialize_dam_break();
    resplit.run(4);
    std::vector<double> skew(grid, 1.0);
    for (int j = 0; j < grid / 3; ++j) skew[static_cast<std::size_t>(j)] = 9.0;
    resplit.rebalance(skew);
    EXPECT_GE(resplit.lb_stats().resplits, 1u);
    EXPECT_GT(resplit.lb_stats().rows_moved, 0u);
    resplit.run(6);

    EXPECT_EQ(resplit.gather_height(), undisturbed.gather_height());
    EXPECT_TRUE(resplit.comm_drained());
}

// A uniform-cost re-split reproduces the constructor's partition — the
// balancer is a fixed point at balance, so a healthy run never churns.
TEST(DistLoadBalance, UniformCostIsANoOp) {
    auto s = make_solver<fp::FullPrecision>(30, 4, true);
    s.initialize_dam_break();
    const auto before = s.row_partition();
    const std::vector<double> uniform(30, 1.0);
    s.rebalance(uniform);
    EXPECT_EQ(s.row_partition(), before);
    EXPECT_EQ(s.lb_stats().evaluations, 1u);
    EXPECT_EQ(s.lb_stats().resplits, 0u);
}

// ------------------------------------------------- per-phase halo bytes

// The ledger reports halo traffic per phase: "dist_halo_post" carries
// the posted payloads, "dist_halo_wait" any stragglers, and their sum
// must equal halo_bytes_sent() exactly in both schedules — with the
// overlap/BSP totals agreeing (same traffic, only the wait point moves).
TEST(HaloLedger, PerPhaseBytesSumToTotalAndMatchBsp) {
    std::uint64_t totals[2] = {};
    for (const bool overlap : {false, true}) {
        auto s = make_solver<fp::MixedPrecision>(24, 3, overlap);
        s.initialize_dam_break();
        s.run(10);
        const auto* post = s.ledger().find("dist_halo_post");
        const auto* wait = s.ledger().find("dist_halo_wait");
        ASSERT_NE(post, nullptr);
        ASSERT_NE(wait, nullptr);
        const std::uint64_t sent = s.halo_bytes_sent();
        EXPECT_GT(sent, 0u);
        EXPECT_EQ(post->bytes + wait->bytes, sent) << "overlap=" << overlap;
        totals[overlap] = sent;
    }
    EXPECT_EQ(totals[0], totals[1]);
}

// In the overlapped schedule every face payload is posted before the
// wait, so the post phase must carry all of the traffic.
TEST(HaloLedger, OverlapPostsAllBytesBeforeTheWait) {
    auto s = make_solver<fp::FullPrecision>(24, 3, true);
    s.initialize_dam_break();
    s.run(5);
    const auto* post = s.ledger().find("dist_halo_post");
    const auto* wait = s.ledger().find("dist_halo_wait");
    ASSERT_NE(post, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(post->bytes, s.halo_bytes_sent());
    EXPECT_EQ(wait->bytes, 0u);
}

// ---------------------------------------------- cross-rank message edges

// Sum the per-edge byte counts of a flushed Chrome trace by source rank.
// Each message edge is an s/f flow pair sharing one args block; counting
// only the "s" start events counts every edge exactly once.
std::map<int, std::uint64_t> edge_bytes_by_src(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const auto doc = obs::json::parse(buf.str());
    std::map<int, std::uint64_t> by_src;
    if (!doc || !doc->is_object()) return by_src;
    const obs::json::Value* events = doc->find("traceEvents");
    if (events == nullptr || !events->is_array()) return by_src;
    for (const obs::json::Value& e : events->items()) {
        if (e.string_or("ph", "") != "s") continue;
        const obs::json::Value* args = e.find("args");
        if (args == nullptr) {
            ADD_FAILURE() << "flow start without args in " << path;
            continue;
        }
        by_src[static_cast<int>(args->number_or("src", -1.0))] +=
            static_cast<std::uint64_t>(args->number_or("bytes", 0.0));
    }
    return by_src;
}

// Message-edge conservation: summed over the trace, the per-edge byte
// counts must reproduce the comm layer's sent-byte counters — per source
// rank and in total — and that total must equal the work ledger's
// dist_halo_post + dist_halo_wait split. Checked across rank counts and
// both schedules; comm_drained() guarantees every posted byte was
// delivered, so posting-side and delivery-side accounting must agree
// exactly.
TEST(DistTracing, EdgeBytesMatchCommAndWorkLedgers) {
    for (const int ranks : {2, 4}) {
        for (const bool overlap : {false, true}) {
            const std::string path =
                ::testing::TempDir() + "dist_edges.trace.json";
            obs::trace_start(path);
            auto s = make_solver<fp::MixedPrecision>(24, ranks, overlap);
            s.initialize_dam_break();
            s.run(6);
            EXPECT_TRUE(s.comm_drained());
            const std::uint64_t total = s.halo_bytes_sent();
            std::vector<std::uint64_t> per_rank;
            for (int r = 0; r < ranks; ++r)
                per_rank.push_back(s.halo_bytes_sent(r));
            EXPECT_GT(obs::trace_stop(), 0u);

            std::map<int, std::uint64_t> by_src;
            by_src = edge_bytes_by_src(path);
            std::uint64_t edge_total = 0;
            for (const auto& [src, bytes] : by_src) edge_total += bytes;
            EXPECT_EQ(edge_total, total)
                << ranks << " ranks, overlap=" << overlap;
            for (int r = 0; r < ranks; ++r)
                EXPECT_EQ(by_src[r], per_rank[static_cast<std::size_t>(r)])
                    << "rank " << r << " of " << ranks
                    << ", overlap=" << overlap;

            const auto* post = s.ledger().find("dist_halo_post");
            const auto* wait = s.ledger().find("dist_halo_wait");
            ASSERT_NE(post, nullptr);
            ASSERT_NE(wait, nullptr);
            EXPECT_EQ(post->bytes + wait->bytes, total);
        }
    }
}

// Tracing must observe, never perturb: a traced run's height field is
// bitwise identical to an untraced one, load balancing included.
TEST(DistTracing, TracedRunIsBitwiseIdenticalToUntraced) {
    ASSERT_FALSE(obs::trace_enabled());
    const auto ref = height_after<fp::MixedPrecision>(
        24, 12, 3, true, /*lb_interval=*/4);
    obs::trace_start(::testing::TempDir() + "dist_invisible.trace.json");
    const auto traced = height_after<fp::MixedPrecision>(
        24, 12, 3, true, /*lb_interval=*/4);
    EXPECT_GT(obs::trace_stop(), 0u);
    EXPECT_EQ(traced, ref);
}

// ------------------------------------------------- communicator contracts

// Claiming a message that was never posted is a deadlock in the simulated
// schedule — both the nonblocking and the BSP receive must throw, not
// hang or fabricate data.
TEST(DistComm, MissingMessageThrows) {
    par::VirtualComm comm(2);
    EXPECT_THROW((void)comm.complete(1, 0, 7), std::runtime_error);
    comm.exchange();
    EXPECT_THROW((void)comm.recv(1, 0, 7), std::runtime_error);
    EXPECT_TRUE(comm.drained());
}

// drained() must see through both delivery paths: a posted-but-unclaimed
// nonblocking message and an exchanged-but-unreceived BSP message each
// count as leaked traffic.
TEST(DistComm, DrainedTracksBothDeliveryPaths) {
    par::VirtualComm comm(2);
    comm.post_bytes(0, 1, 1, comm.acquire(8));
    EXPECT_FALSE(comm.drained());
    comm.release(comm.complete(1, 0, 1).bytes);
    EXPECT_TRUE(comm.drained());

    comm.send_bytes(0, 1, 2, comm.acquire(8));
    EXPECT_FALSE(comm.drained());
    comm.exchange();
    EXPECT_FALSE(comm.drained());
    comm.release(comm.recv(1, 0, 2).bytes);
    EXPECT_TRUE(comm.drained());
}

}  // namespace
