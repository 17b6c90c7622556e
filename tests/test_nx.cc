/**
 * @file
 * Tests for the NX message-passing library: typed delivery, ordering,
 * flow control, collectives, and the AU variant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "msg/nx.hh"

using namespace shrimp;
using namespace shrimp::msg;

namespace
{

struct NxFixtureResult
{
    bool ok = true;
};

} // anonymous namespace

TEST(Nx, PingPong)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> got;

    c.spawnOn(0, "rank0", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        int v = 42;
        nx.csend(7, &v, sizeof(v), 1);
        int r = 0;
        EXPECT_EQ(nx.crecv(8, &r, sizeof(r)), sizeof(r));
        got.push_back(r);
    });
    c.spawnOn(1, "rank1", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        int r = 0;
        EXPECT_EQ(nx.crecv(7, &r, sizeof(r)), sizeof(r));
        got.push_back(r);
        int v = r + 1;
        nx.csend(8, &v, sizeof(v), 0);
    });
    c.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 42);
    EXPECT_EQ(got[1], 43);
}

TEST(Nx, MessagesArriveInOrderPerPair)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> received;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        for (int i = 0; i < 200; ++i)
            nx.csend(1, &i, sizeof(i), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        for (int i = 0; i < 200; ++i) {
            int v;
            nx.crecv(1, &v, sizeof(v));
            received.push_back(v);
        }
    });
    c.run();
    ASSERT_EQ(received.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(received[i], i);
}

TEST(Nx, TypeSelectorsMatchSelectively)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> order;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        int a = 100, b = 200;
        nx.csend(/*type=*/5, &a, sizeof(a), 1);
        nx.csend(/*type=*/6, &b, sizeof(b), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        int v;
        // Receive type 6 first even though type 5 arrived earlier.
        nx.crecv(6, &v, sizeof(v));
        order.push_back(v);
        nx.crecv(5, &v, sizeof(v));
        order.push_back(v);
    });
    c.run();
    EXPECT_EQ(order, (std::vector<int>{200, 100}));
}

TEST(Nx, WildcardReceivesAnything)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 3;
    NxDomain dom(c, cfg);
    int total = 0;

    for (int r = 1; r < 3; ++r) {
        c.spawnOn(r, "sender", [&, r] {
            dom.init(r);
            auto &nx = dom.process(r);
            int v = r;
            nx.csend(r, &v, sizeof(v), 0);
        });
    }
    c.spawnOn(0, "receiver", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        for (int i = 0; i < 2; ++i) {
            int v = 0, src = -1;
            nx.crecvProbe(-1, -1, &v, sizeof(v), &src);
            EXPECT_EQ(v, src);
            total += v;
        }
    });
    c.run();
    EXPECT_EQ(total, 3);
}

TEST(Nx, LargeMessagesAndRingWrap)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 64 * 1024;
    NxDomain dom(c, cfg);
    bool all_ok = false;

    const std::size_t kMsg = 20 * 1024;
    const int kCount = 12; // wraps the 64 KB ring several times

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> buf(kMsg);
        for (int i = 0; i < kCount; ++i) {
            for (std::size_t j = 0; j < kMsg; ++j)
                buf[j] = char(i * 7 + j * 13);
            nx.csend(3, buf.data(), kMsg, 1);
        }
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(kMsg);
        bool ok = true;
        for (int i = 0; i < kCount; ++i) {
            EXPECT_EQ(nx.crecv(3, buf.data(), kMsg), kMsg);
            for (std::size_t j = 0; j < kMsg; ++j)
                ok = ok && buf[j] == char(i * 7 + j * 13);
        }
        all_ok = ok;
    });
    c.run();
    EXPECT_TRUE(all_ok);
}

TEST(Nx, FlowControlBlocksFastSender)
{
    // A sender outpacing a slow receiver must not overrun the ring;
    // all messages still arrive intact.
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 16 * 1024;
    NxDomain dom(c, cfg);
    int sum = 0;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> payload(2048, 1);
        for (int i = 0; i < 64; ++i)
            nx.csend(9, payload.data(), payload.size(), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(2048);
        for (int i = 0; i < 64; ++i) {
            c.sim().delay(microseconds(200)); // slow consumer
            nx.crecv(9, buf.data(), buf.size());
            sum += buf[17];
        }
    });
    c.run();
    EXPECT_EQ(sum, 64);
}

TEST(Nx, IprobeSeesPendingMessage)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    long probe_before = -2, probe_after = -2;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        double v = 2.5;
        nx.csend(4, &v, sizeof(v), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        // Wait for arrival, then probe.
        double v;
        while (nx.iprobe(4) < 0)
            c.sim().delay(microseconds(50));
        probe_before = nx.iprobe(4);
        nx.crecv(4, &v, sizeof(v));
        probe_after = nx.iprobe(4);
    });
    c.run();
    EXPECT_EQ(probe_before, long(sizeof(double)));
    EXPECT_EQ(probe_after, -1);
}

TEST(Nx, GsyncAndReductions)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 8;
    NxDomain dom(c, cfg);
    std::vector<double> sums(8), highs(8);

    for (int r = 0; r < 8; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            dom.init(r);
            auto &nx = dom.process(r);
            nx.gsync();
            sums[r] = nx.gdsum(double(r));
            highs[r] = nx.gdhigh(double(r % 3));
            nx.gsync();
        });
    }
    c.run();
    for (int r = 0; r < 8; ++r) {
        EXPECT_DOUBLE_EQ(sums[r], 28.0);
        EXPECT_DOUBLE_EQ(highs[r], 2.0);
    }
}

TEST(Nx, PollSeesDataBeforeTheDelayedDeliverHook)
{
    // With a per-message interrupt the deliver hook runs a handler's
    // time after the data lands, but a poll reads ring memory: it
    // must see the message as soon as it is written, even though the
    // previous poll found the ring empty.
    core::ClusterConfig cc;
    cc.shrimpNic.interruptPerMessage = true;
    core::Cluster c(cc);
    NxConfig cfg;
    cfg.nprocs = 3;
    NxDomain dom(c, cfg);
    long idle_probe = 0;
    std::uint64_t hooks_before = 0, hooks_at_sight = 0;
    Tick sent_at = 0, seen_at = 0;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        c.sim().delay(microseconds(200));
        sent_at = c.sim().now();
        double v = 1.5;
        dom.process(0).csend(4, &v, sizeof(v), 1);
    });
    c.spawnOn(2, "idle", [&] { dom.init(2); });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        c.sim().delay(microseconds(100));
        idle_probe = nx.iprobe(4); // every ring polled empty
        hooks_before = c.vmmc(1).deliveries();
        while (nx.iprobe(4) < 0)
            c.sim().delay(microseconds(1));
        seen_at = c.sim().now();
        hooks_at_sight = c.vmmc(1).deliveries();
        double v = 0;
        nx.crecv(4, &v, sizeof(v));
        EXPECT_EQ(v, 1.5);
    });
    c.run();
    EXPECT_EQ(idle_probe, -1);
    EXPECT_GT(seen_at, sent_at);
    // Seen while the 20 us handler still held the hook back.
    EXPECT_EQ(hooks_at_sight, hooks_before);
}

TEST(Nx, IdleRingSkipsKeepWrapAndCreditsIntact)
{
    // Two senders stream through small rings into one receiver that
    // polls between receives, so rings go idle, get skipped, refill,
    // wrap and return credits. Every combination of transport and
    // per-message interrupts must deliver every byte in order.
    for (bool use_au : {false, true}) {
        for (bool irq : {false, true}) {
            core::ClusterConfig cc;
            cc.shrimpNic.interruptPerMessage = irq;
            core::Cluster c(cc);
            NxConfig cfg;
            cfg.nprocs = 3;
            cfg.ringBytes = 16 * 1024;
            cfg.useAutomaticUpdate = use_au;
            NxDomain dom(c, cfg);
            const int kCount = 40;
            const std::size_t kMsg = 1500; // wraps the ring 3+ times
            std::vector<int> next(3, 0);
            bool ok = true;

            for (int s : {0, 2}) {
                c.spawnOn(s, "sender", [&, s] {
                    dom.init(s);
                    auto &nx = dom.process(s);
                    std::vector<char> buf(kMsg);
                    for (int i = 0; i < kCount; ++i) {
                        for (std::size_t j = 0; j < kMsg; ++j)
                            buf[j] = char(s * 31 + i * 7 + j);
                        nx.csend(s, buf.data(), kMsg, 1);
                        c.sim().delay(microseconds(s == 0 ? 3 : 40));
                    }
                });
            }
            c.spawnOn(1, "receiver", [&] {
                dom.init(1);
                auto &nx = dom.process(1);
                std::vector<char> buf(kMsg);
                for (int n = 0; n < 2 * kCount; ++n) {
                    while (nx.iprobe(-1) < 0)
                        c.sim().delay(microseconds(5));
                    int src = -1;
                    nx.crecvProbe(-1, -1, buf.data(), kMsg, &src);
                    int i = next[src]++;
                    for (std::size_t j = 0; j < kMsg; ++j)
                        ok = ok && buf[j] == char(src * 31 + i * 7 + j);
                }
            });
            c.run();
            EXPECT_TRUE(ok) << "au=" << use_au << " irq=" << irq;
            EXPECT_EQ(next[0], kCount) << "au=" << use_au;
            EXPECT_EQ(next[2], kCount) << "au=" << use_au;
        }
    }
}

class NxTransportTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(NxTransportTest, BulkDataIsIdenticalUnderDuAndAu)
{
    // Property: the AU transport (Sec 4.2 what-if) must deliver
    // byte-identical data, only timing differs.
    bool use_au = GetParam();
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.useAutomaticUpdate = use_au;
    NxDomain dom(c, cfg);
    std::uint64_t checksum = 0;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<std::uint32_t> data(4096);
        std::iota(data.begin(), data.end(), 77u);
        nx.csend(2, data.data(), data.size() * 4, 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<std::uint32_t> data(4096);
        nx.crecv(2, data.data(), data.size() * 4);
        for (auto v : data)
            checksum += v;
    });
    c.run();
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < 4096; ++i)
        expect += 77u + i;
    EXPECT_EQ(checksum, expect);
}

INSTANTIATE_TEST_SUITE_P(DuAndAu, NxTransportTest,
                         ::testing::Values(false, true));

TEST(Nx, AuBulkTransferIsSlowerThanDu)
{
    // Sec 4.2: for large message sends the DMA performance of
    // deliberate update overrides AU's lower latency.
    auto run_once = [](bool use_au) {
        core::Cluster c;
        NxConfig cfg;
        cfg.nprocs = 2;
        cfg.useAutomaticUpdate = use_au;
        NxDomain dom(c, cfg);
        Tick elapsed = 0;
        const std::size_t kBytes = 48 * 1024;
        const int kIters = 8;
        c.spawnOn(0, "sender", [&] {
            dom.init(0);
            auto &nx = dom.process(0);
            std::vector<char> data(kBytes, 5);
            nx.gsync();
            Tick t0 = c.sim().now();
            for (int i = 0; i < kIters; ++i) {
                nx.csend(1, data.data(), kBytes, 1);
                char ack;
                nx.crecv(2, &ack, 1);
            }
            elapsed = c.sim().now() - t0;
        });
        c.spawnOn(1, "receiver", [&] {
            dom.init(1);
            auto &nx = dom.process(1);
            std::vector<char> data(kBytes);
            nx.gsync();
            for (int i = 0; i < kIters; ++i) {
                nx.crecv(1, data.data(), kBytes);
                char ack = 1;
                nx.csend(2, &ack, 1, 0);
            }
        });
        c.run();
        return elapsed;
    };

    Tick du = run_once(false);
    Tick au = run_once(true);
    EXPECT_LT(du, au);
}
