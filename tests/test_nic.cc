/**
 * @file
 * Unit tests for the SHRIMP network interface: page tables, DU engine
 * and queueing, AU trains and combining arithmetic, outgoing-FIFO
 * flow control, notification bits, forced-interrupt mode.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/run_config.hh"
#include "mesh/network.hh"
#include "nic/modern_nic.hh"
#include "nic/nic_kind.hh"
#include "nic/shrimp_nic.hh"
#include "node/node.hh"
#include "sim/random.hh"

using namespace shrimp;
using namespace shrimp::nic;

namespace
{

/** Two-node harness wiring nodes straight to a mesh. */
struct NicHarness
{
    Simulation sim;
    mesh::Network net;
    node::Node n0, n1;
    ShrimpNic nic0, nic1;

    explicit NicHarness(const ShrimpNicParams &p = ShrimpNicParams())
        : net(sim, 2, 1),
          n0(sim, 0, node::MachineParams(), 1 << 22),
          n1(sim, 1, node::MachineParams(), 1 << 22),
          nic0(n0, net, p), nic1(n1, net, p)
    {
    }
};

} // anonymous namespace

TEST(PageTables, OptProxyAllocationAndLookup)
{
    OutgoingPageTable opt;
    OptIndex a = opt.allocate(3, 17);
    OptIndex b = opt.allocate(5, 99);
    EXPECT_EQ(opt.proxy(a).dstNode, 3u);
    EXPECT_EQ(opt.proxy(a).dstFrame, 17u);
    EXPECT_EQ(opt.proxy(b).dstNode, 5u);
    EXPECT_EQ(opt.proxyCount(), 2u);

    // Multi-page imports to different nodes interleave; page i of
    // each maps to its own first frame + i.
    OptIndex c = opt.allocate(3, 100, 4);
    OptIndex d = opt.allocate(5, 7);
    OptIndex e = opt.allocate(3, 200, 3);
    EXPECT_EQ(d, c + 4);
    EXPECT_EQ(e, d + 1);
    for (OptIndex i = 0; i < 4; ++i) {
        EXPECT_EQ(opt.proxy(c + i).dstNode, 3u);
        EXPECT_EQ(opt.proxy(c + i).dstFrame, 100u + i);
    }
    EXPECT_EQ(opt.proxy(d).dstNode, 5u);
    EXPECT_EQ(opt.proxy(d).dstFrame, 7u);
    for (OptIndex i = 0; i < 3; ++i) {
        EXPECT_EQ(opt.proxy(e + i).dstNode, 3u);
        EXPECT_EQ(opt.proxy(e + i).dstFrame, 200u + i);
    }
    // Pages, not imports.
    EXPECT_EQ(opt.proxyCount(), 10u);
}

TEST(PageTables, IndexPastLastRunPanics)
{
    OutgoingPageTable opt;
    EXPECT_DEATH(opt.proxy(0), "out of range");
    OptIndex a = opt.allocate(1, 10, 3);
    EXPECT_EQ(opt.proxy(a + 2).dstFrame, 12u);
    EXPECT_DEATH(opt.proxy(a + 3), "out of range");
    EXPECT_DEATH(opt.invalidate(a + 3), "out of range");
}

TEST(PageTables, AuBindingLifecycle)
{
    OutgoingPageTable opt;
    EXPECT_FALSE(opt.auBinding(7));
    opt.bindAu(7, 1, 2, 40, /*combining=*/true, /*irq=*/false);
    ASSERT_TRUE(opt.auBinding(7));
    EXPECT_EQ(opt.auBinding(7)->dstFrame, 40u);
    EXPECT_TRUE(opt.auBinding(7)->combining);
    opt.unbindAu(7, 1);
    EXPECT_FALSE(opt.auBinding(7));
}

TEST(PageTables, AuRunCoversEveryPageAndNoMore)
{
    OutgoingPageTable opt;
    opt.bindAu(100, 32, 5, 800, /*combining=*/false, /*irq=*/true);
    EXPECT_EQ(opt.auBindingCount(), 32u);
    for (node::Frame i = 0; i < 32; ++i) {
        auto e = opt.auBinding(100 + i);
        ASSERT_TRUE(e) << i;
        EXPECT_EQ(e->dstNode, 5u);
        EXPECT_EQ(e->dstFrame, 800u + i);
        EXPECT_TRUE(e->auEnabled);
        EXPECT_FALSE(e->combining);
        EXPECT_TRUE(e->interruptRequest);
    }
    EXPECT_FALSE(opt.auBinding(99));
    EXPECT_FALSE(opt.auBinding(132));

    // A second run right after the first keeps its own destination.
    opt.bindAu(132, 2, 6, 10, true, false);
    EXPECT_EQ(opt.auBinding(131)->dstNode, 5u);
    EXPECT_EQ(opt.auBinding(132)->dstNode, 6u);
    EXPECT_EQ(opt.auBinding(133)->dstFrame, 11u);
    EXPECT_FALSE(opt.auBinding(134));
    EXPECT_EQ(opt.auBindingCount(), 34u);

    opt.bindAu(0, 0, 1, 1, true, false); // empty: no-op
    EXPECT_EQ(opt.auBindingCount(), 34u);
}

TEST(PageTables, AuSubRangeUnbindSplitsARun)
{
    OutgoingPageTable opt;
    opt.bindAu(10, 10, 3, 50, true, false); // 10..19 -> 50..59
    opt.unbindAu(13, 4);                    // drop 13..16
    EXPECT_EQ(opt.auBindingCount(), 6u);
    for (node::Frame f = 10; f < 20; ++f) {
        bool hole = f >= 13 && f < 17;
        auto e = opt.auBinding(f);
        EXPECT_EQ(bool(e), !hole) << f;
        if (e) {
            EXPECT_EQ(e->dstFrame, 50u + (f - 10)) << f;
        }
    }

    // Unbinding across both remaining pieces trims each.
    opt.unbindAu(11, 8); // drop 11..18
    EXPECT_EQ(opt.auBindingCount(), 2u);
    EXPECT_EQ(opt.auBinding(10)->dstFrame, 50u);
    EXPECT_FALSE(opt.auBinding(11));
    EXPECT_FALSE(opt.auBinding(18));
    EXPECT_EQ(opt.auBinding(19)->dstFrame, 59u);

    // Unbinding pages that were never bound changes nothing.
    opt.unbindAu(30, 5);
    EXPECT_EQ(opt.auBindingCount(), 2u);
}

TEST(PageTables, AuOverlappingRebindReplacesTheOldBinding)
{
    OutgoingPageTable opt;
    opt.bindAu(0, 8, 1, 100, true, false);   // 0..7 -> node 1
    opt.bindAu(20, 4, 2, 200, true, false);  // 20..23 -> node 2
    opt.bindAu(6, 16, 3, 300, false, true);  // 6..21 -> node 3
    EXPECT_EQ(opt.auBindingCount(), 6u + 16u + 2u);
    for (node::Frame f = 0; f < 6; ++f)
        EXPECT_EQ(opt.auBinding(f)->dstFrame, 100u + f);
    for (node::Frame f = 6; f < 22; ++f) {
        auto e = opt.auBinding(f);
        ASSERT_TRUE(e) << f;
        EXPECT_EQ(e->dstNode, 3u);
        EXPECT_EQ(e->dstFrame, 300u + (f - 6));
        EXPECT_FALSE(e->combining);
    }
    EXPECT_EQ(opt.auBinding(22)->dstFrame, 202u);
    EXPECT_EQ(opt.auBinding(23)->dstNode, 2u);

    // Rebinding the same range in place keeps the page count.
    opt.bindAu(6, 16, 4, 400, true, false);
    EXPECT_EQ(opt.auBindingCount(), 24u);
    EXPECT_EQ(opt.auBinding(21)->dstFrame, 415u);
}

TEST(PageTables, AuRunsMatchAPerPageModel)
{
    // Random binds and unbinds, clustered low plus a far outlier so
    // the lookup directory gets uneven buckets, checked page by page
    // against a plain per-page table after every step.
    constexpr node::Frame kFar = 1u << 20;
    constexpr node::Frame kLow = 600;
    struct Page
    {
        bool bound = false;
        NodeId node = 0;
        node::Frame frame = 0;
    };
    std::vector<Page> model(kLow);
    Page far;
    OutgoingPageTable opt;
    Random rng(11);
    std::size_t bound_pages = 0;
    for (int step = 0; step < 400; ++step) {
        node::Frame first = node::Frame(rng.below(kLow));
        std::size_t pages = 1 + rng.below(std::min<std::uint64_t>(
                                    40, kLow - first));
        bool bind = rng.below(3) != 0;
        if (step == 200) {
            opt.bindAu(kFar, 1, 9, 7, true, false);
            far = Page{true, 9, 7};
        }
        if (bind) {
            NodeId n = NodeId(rng.below(16));
            node::Frame dst = node::Frame(rng.below(10000));
            opt.bindAu(first, pages, n, dst, true, false);
            for (std::size_t i = 0; i < pages; ++i)
                model[first + i] = Page{true, n, dst + node::Frame(i)};
        } else {
            opt.unbindAu(first, pages);
            for (std::size_t i = 0; i < pages; ++i)
                model[first + i].bound = false;
        }
        bound_pages = far.bound;
        for (node::Frame f = 0; f < kLow; ++f) {
            auto e = opt.auBinding(f);
            ASSERT_EQ(bool(e), model[f].bound) << "step " << step
                                               << " frame " << f;
            if (e) {
                ASSERT_EQ(e->dstNode, model[f].node) << f;
                ASSERT_EQ(e->dstFrame, model[f].frame) << f;
            }
            bound_pages += model[f].bound;
        }
        ASSERT_EQ(bool(opt.auBinding(kFar)), far.bound);
        ASSERT_FALSE(opt.auBinding(kFar + 1));
        ASSERT_FALSE(opt.auBinding(kFar - 1));
        ASSERT_EQ(opt.auBindingCount(), bound_pages) << step;
    }
}

TEST(PageTables, IptInterruptBits)
{
    IncomingPageTable ipt;
    EXPECT_FALSE(ipt.interruptEnable(4));
    ipt.setInterruptEnable(4, true);
    EXPECT_TRUE(ipt.interruptEnable(4));
    ipt.setInterruptEnable(4, false);
    EXPECT_FALSE(ipt.interruptEnable(4));
}

TEST(ShrimpNic, DeliberateUpdateWritesRemoteMemory)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    node::Frame dst_frame = h.n1.mem().frameOf(dst);

    OptIndex proxy = h.nic0.importPage(1, dst_frame);
    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        delivered = true;
        EXPECT_EQ(d.srcNode, 0u);
        EXPECT_EQ(d.offset, 64u);
        EXPECT_EQ(d.bytes, 5u);
        EXPECT_FALSE(d.automatic);
    });

    h.sim.spawn("send", [&] {
        SendDesc req;
        char payload[5] = {'h', 'e', 'l', 'l', 'o'};
        req.src = payload;
        req.proxy = proxy;
        req.dstOffset = 64;
        req.bytes = 5;
        h.nic0.post(req);
    });
    h.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(std::memcmp(dst + 64, "hello", 5), 0);
}

TEST(ShrimpNic, PageCrossingTransferPanics)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(8192, true));
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst));
    h.sim.spawn("send", [&] {
        SendDesc req;
        char buf[64] = {};
        req.src = buf;
        req.proxy = proxy;
        req.dstOffset = 4090;
        req.bytes = 20;
        EXPECT_DEATH(h.nic0.post(req), "crosses");
    });
    h.sim.run();
}

TEST(ShrimpNic, InvalidatedImportFaultsWhileNeighbourStillSends)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(6 * 4096, true));
    node::Frame f0 = h.n1.mem().frameOf(dst);
    OptIndex dead = h.nic0.importPage(1, f0, 3);
    OptIndex live = h.nic0.importPage(1, f0 + 3, 3);
    // Invalidating any page tears down the whole import.
    h.nic0.invalidateProxy(dead + 1);

    auto post = [&](OptIndex proxy, const char *what) {
        SendDesc req;
        req.src = what;
        req.proxy = proxy;
        req.dstOffset = 8;
        req.bytes = 4;
        h.nic0.post(req);
    };
    h.sim.spawn("send", [&] {
        EXPECT_DEATH(post(dead, "dead"), "stale");
        EXPECT_DEATH(post(dead + 2, "dead"), "stale");
        post(live, "live");
        post(live + 2, "last");
    });
    h.sim.run();
    EXPECT_EQ(std::memcmp(dst + 3 * 4096 + 8, "live", 4), 0);
    EXPECT_EQ(std::memcmp(dst + 5 * 4096 + 8, "last", 4), 0);
    for (int page = 0; page < 3; ++page)
        EXPECT_EQ(dst[page * 4096 + 8], 0);
}

TEST(ShrimpNic, SendWaitingForQueueSurvivesOptGrowth)
{
    // Regression: post() held a reference into the OPT across its
    // queue-full wait, and an import by another fiber on the same
    // node could reallocate the table underneath it.
    NicHarness h; // DU queue depth 1: the second post must wait
    char *dst = static_cast<char *>(h.n1.mem().alloc(3 * 4096, true));
    node::Frame f0 = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, f0, 3);
    bool first_posted = false;
    Tick imports_done = 0;
    Tick second_accepted = 0;
    node::Frame late_frame = node::kInvalidFrame;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.offset == 100)
            late_frame = d.frame;
    });

    h.sim.spawn("sender", [&] {
        std::vector<char> page(4096, 'x');
        SendDesc req;
        req.src = page.data();
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 4096;
        h.nic0.post(req);
        first_posted = true;
        req.src = "late";
        req.proxy = proxy + 2;
        req.dstOffset = 100;
        req.bytes = 4;
        h.nic0.post(req);
        second_accepted = h.sim.now();
    });
    h.sim.spawn("importer", [&] {
        while (!first_posted)
            h.sim.delay(nanoseconds(100));
        h.sim.delay(microseconds(10)); // sender is now waiting
        for (int i = 0; i < 4096; ++i)
            h.nic0.importPage(1, f0);
        imports_done = h.sim.now();
    });
    h.sim.run();
    EXPECT_GT(second_accepted, imports_done);
    EXPECT_EQ(late_frame, f0 + 2); // delivered on node 1 (nic1)
    EXPECT_EQ(std::memcmp(dst + 2 * 4096 + 100, "late", 4), 0);
    EXPECT_EQ(dst[4096 + 100], 0);
    EXPECT_EQ(dst[4095], 'x');
}

TEST(ShrimpNic, AuStoreToUnboundPageIsIgnored)
{
    NicHarness h;
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &) { delivered = true; });
    h.sim.spawn("p", [&] {
        h.nic0.auStore(local, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_FALSE(delivered);
}

TEST(ShrimpNic, AuTrainCountsUncombinedPackets)
{
    ShrimpNicParams p;
    p.combiningEnabled = false;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1, 1,
                  h.n1.mem().frameOf(dst), /*combining=*/false,
                  false);

    h.sim.spawn("p", [&] {
        // 16 separate 8-byte stores: 16 hardware packets.
        for (int i = 0; i < 16; ++i) {
            std::uint64_t v = i;
            std::memcpy(local + i * 8, &v, 8);
            h.nic0.auStore(local + i * 8, 8);
        }
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 16u);
    // The mesh and the receiving NIC agree: both count the 16 wire
    // packets the train stands for, not the single mesh event.
    EXPECT_EQ(h.sim.stats().counterValue("mesh.packets"), 16u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.nic.packets_in"), 16u);
    // Data landed correctly.
    for (int i = 0; i < 16; ++i) {
        std::uint64_t v;
        std::memcpy(&v, dst + i * 8, 8);
        EXPECT_EQ(v, std::uint64_t(i));
    }
}

TEST(ShrimpNic, CombiningMergesConsecutiveStores)
{
    ShrimpNicParams p;
    p.combineMaxBytes = 64;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1, 1,
                  h.n1.mem().frameOf(dst), /*combining=*/true, false);

    h.sim.spawn("p", [&] {
        // 16 consecutive 8-byte stores = 128 bytes -> 2 packets of
        // 64 bytes under the sub-page combining boundary.
        for (int i = 0; i < 16; ++i)
            h.nic0.auStore(local + i * 8, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 2u);
}

TEST(ShrimpNic, NonConsecutiveStoresBreakCombining)
{
    ShrimpNicParams p;
    p.combineMaxBytes = 256;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1, 1,
                  h.n1.mem().frameOf(dst), true, false);

    h.sim.spawn("p", [&] {
        // Scattered stores: each opens a new packet.
        for (int i = 0; i < 8; ++i)
            h.nic0.auStore(local + i * 128, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 8u);
}

TEST(ShrimpNic, FifoThresholdStallsAndRecovers)
{
    ShrimpNicParams p;
    p.outFifoBytes = 1024; // tiny FIFO
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(32768, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(32768, true));
    for (int pg = 0; pg < 8; ++pg)
        h.nic0.bindAu(h.n0.mem().frameOf(local) + pg, 1, 1,
                      h.n1.mem().frameOf(dst) + pg, true, false);

    bool finished = false;
    h.sim.spawn("p", [&] {
        for (int i = 0; i < 32; ++i) {
            char buf[512];
            std::memset(buf, i, sizeof(buf));
            std::memcpy(local + (i % 64) * 512, buf, 512);
            h.nic0.auStore(local + (i % 64) * 512, 512);
            h.nic0.auFlush();
        }
        h.nic0.auFence();
        finished = true;
    });
    h.sim.run();
    EXPECT_TRUE(finished);
    EXPECT_GT(
        h.sim.stats().counterValue("node0.nic.fifo_threshold_irqs"),
        0u);
    EXPECT_EQ(h.nic0.fifoFill(), 0u);
}

TEST(ShrimpNic, NotificationRequiresBothBits)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame);

    int notified = 0;
    int delivered = 0;
    h.nic1.setNotifyHook([&](node::Frame) { ++notified; });
    h.nic1.setDeliverHook([&](const Delivery &) { ++delivered; });

    // The IPT bit is sampled at packet *arrival*, so each step waits
    // for the delivery before flipping receiver state.
    auto send = [&](bool sender_bit) {
        SendDesc req;
        char v = 1;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 1;
        req.notify = sender_bit;
        int before = delivered;
        h.nic0.post(req);
        h.nic0.drainSends();
        while (delivered == before)
            h.sim.delay(microseconds(2));
    };

    h.sim.spawn("p", [&] {
        send(true); // receiver bit off: no notification
        h.nic1.setInterruptEnable(frame, true);
        send(false); // sender bit off: no notification
        send(true);  // both: notification
    });
    h.sim.run();
    EXPECT_EQ(notified, 1);
}

TEST(ShrimpNic, ForcedInterruptModeChargesReceiverCpu)
{
    ShrimpNicParams p;
    p.interruptPerMessage = true;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst));

    h.sim.spawn("p", [&] {
        for (int i = 0; i < 10; ++i) {
            SendDesc req;
            char v = char(i);
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = 0;
            req.bytes = 1;
            h.nic0.post(req);
        }
        h.nic0.drainSends();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 10u);
}

TEST(ShrimpNic, DuQueueDepthAllowsPipelinedSubmit)
{
    // With a 2-deep queue the second submit returns without waiting
    // for the first transfer's DMA; without it, it must wait.
    auto submit_two = [](int depth) {
        ShrimpNicParams p;
        p.duQueueDepth = depth;
        NicHarness h(p);
        char *dst = static_cast<char *>(h.n1.mem().alloc(8192, true));
        OptIndex proxy =
            h.nic0.importPage(1, h.n1.mem().frameOf(dst));
        Tick second_accepted = 0;
        h.sim.spawn("p", [&] {
            std::vector<char> buf(4096, 'x');
            SendDesc req;
            req.src = buf.data();
            req.proxy = proxy;
            req.dstOffset = 0;
            req.bytes = 4096;
            h.nic0.post(req);
            h.nic0.post(req);
            second_accepted = h.sim.now();
        });
        h.sim.run();
        return second_accepted;
    };
    Tick no_queue = submit_two(1);
    Tick with_queue = submit_two(2);
    EXPECT_LT(with_queue, no_queue);
}

TEST(ShrimpNic, AuFenceWaitsForRemoteApplication)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1, 1,
                  h.n1.mem().frameOf(dst), true, false);

    bool value_present_at_fence = false;
    h.sim.spawn("p", [&] {
        std::uint64_t v = 0xabcdef;
        std::memcpy(local, &v, 8);
        h.nic0.auStore(local, 8);
        h.nic0.auFence();
        std::uint64_t got;
        std::memcpy(&got, dst, 8);
        value_present_at_fence = (got == v);
    });
    h.sim.run();
    EXPECT_TRUE(value_present_at_fence);
}

TEST(ShrimpNic, UnbindingARangeFlushesItsOpenTrains)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4 * 4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4 * 4096, true));
    node::Frame l0 = h.n0.mem().frameOf(local);
    h.nic0.bindAu(l0, 4, 1, h.n1.mem().frameOf(dst), true, false);

    std::uint64_t packets_after_unbind = 0;
    h.sim.spawn("p", [&] {
        // Open trains on pages 0, 2 and 3; page 1 stays idle.
        for (int pg : {2, 0, 3}) {
            std::uint64_t v = 0x100 + pg;
            std::memcpy(local + pg * 4096, &v, 8);
            h.nic0.auStore(local + pg * 4096, 8);
        }
        h.nic0.unbindAu(l0, 3); // pages 0..2: two open trains
        packets_after_unbind =
            h.sim.stats().counterValue("node0.nic.au_packets");
        // Unbound pages are snooped and ignored.
        h.nic0.auStore(local, 8);
        h.nic0.auFlush(); // page 3's train
    });
    h.sim.run();
    EXPECT_EQ(packets_after_unbind, 2u);
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 3u);
    for (int pg : {0, 2, 3}) {
        std::uint64_t got;
        std::memcpy(&got, dst + pg * 4096, 8);
        EXPECT_EQ(got, std::uint64_t(0x100 + pg)) << pg;
    }
}

TEST(ShrimpNic, ArrivalsCountAtTheMemoryWrite)
{
    ShrimpNicParams p;
    p.interruptPerMessage = true;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst));
    std::uint64_t arrivals_at_hook = 0;
    bool hook_ran = false;
    h.nic1.setDeliverHook([&](const Delivery &) {
        arrivals_at_hook = h.nic1.arrivals(0);
        hook_ran = true;
    });
    std::uint64_t arrivals_before_hook = 0;
    bool hook_ran_at_poll = true;
    h.sim.spawn("send", [&] {
        EXPECT_EQ(h.nic1.arrivals(0), 0u);
        char payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        SendDesc req;
        req.src = payload;
        req.proxy = proxy;
        req.bytes = sizeof(payload);
        h.nic0.post(req);
        // Poll until the data is in memory; the handler delays the
        // hook, but not the count.
        while (dst[7] != 8)
            h.sim.delay(nanoseconds(100));
        arrivals_before_hook = h.nic1.arrivals(0);
        hook_ran_at_poll = hook_ran;
    });
    h.sim.run();
    EXPECT_FALSE(hook_ran_at_poll);
    EXPECT_EQ(arrivals_before_hook, 1u);
    EXPECT_EQ(arrivals_at_hook, 1u);
    EXPECT_EQ(h.nic1.arrivals(1), 0u);
    EXPECT_EQ(h.nic1.arrivals(NodeId(1000)), 0u);
}

// ---------------------------------------------------------------------
// The NIC-kind registry (shared --nic / SHRIMP_NIC parsing + caps)
// ---------------------------------------------------------------------

TEST(NicKind, ParseNamesAndCapsTable)
{
    NicKind k = NicKind::Shrimp;
    EXPECT_TRUE(parseNicKind("modern", k));
    EXPECT_EQ(k, NicKind::Modern);
    EXPECT_TRUE(parseNicKind("baseline", k));
    EXPECT_EQ(k, NicKind::Baseline);
    EXPECT_TRUE(parseNicKind("shrimp", k));
    EXPECT_EQ(k, NicKind::Shrimp);
    k = NicKind::Modern;
    EXPECT_FALSE(parseNicKind("myrinet", k));
    EXPECT_EQ(k, NicKind::Modern); // untouched on failure

    EXPECT_STREQ(nicKindName(NicKind::Shrimp), "shrimp");
    EXPECT_STREQ(nicKindName(NicKind::Baseline), "baseline");
    EXPECT_STREQ(nicKindName(NicKind::Modern), "modern");

    NicCaps s = nicKindCaps(NicKind::Shrimp);
    EXPECT_TRUE(s.autoUpdate);
    EXPECT_FALSE(s.doorbell);
    EXPECT_FALSE(s.batchedNotify);
    NicCaps b = nicKindCaps(NicKind::Baseline);
    EXPECT_FALSE(b.autoUpdate);
    EXPECT_FALSE(b.doorbell);
    EXPECT_FALSE(b.batchedNotify);
    NicCaps m = nicKindCaps(NicKind::Modern);
    EXPECT_FALSE(m.autoUpdate);
    EXPECT_TRUE(m.doorbell);
    EXPECT_TRUE(m.batchedNotify);
}

TEST(NicKind, EnvOverride)
{
    std::string err;
    core::RunConfig rc;
    ::setenv("SHRIMP_NIC", "modern", 1);
    ASSERT_TRUE(core::applyEnv(rc, err)) << err;
    EXPECT_EQ(rc.cluster.nicKind, NicKind::Modern);
    ::unsetenv("SHRIMP_NIC");
    rc.cluster.nicKind = NicKind::Baseline;
    ASSERT_TRUE(core::applyEnv(rc, err)) << err;
    EXPECT_EQ(rc.cluster.nicKind, NicKind::Baseline);
}

// ---------------------------------------------------------------------
// ModernNic: doorbells, completion queues, notifiable writes
// ---------------------------------------------------------------------

namespace
{

/** Two-node harness around the modern adapter. */
struct ModernHarness
{
    Simulation sim;
    mesh::Network net;
    node::Node n0, n1;
    ModernNic nic0, nic1;

    explicit ModernHarness(
        const ModernNicParams &p = ModernNicParams())
        : net(sim, 2, 1),
          n0(sim, 0, node::MachineParams(), 1 << 22),
          n1(sim, 1, node::MachineParams(), 1 << 22),
          nic0(n0, net, p), nic1(n1, net, p)
    {
    }
};

} // anonymous namespace

TEST(ModernNic, InstanceCapsMatchKindTable)
{
    ModernHarness h;
    NicCaps c = h.nic0.caps();
    NicCaps t = nicKindCaps(NicKind::Modern);
    EXPECT_EQ(c.autoUpdate, t.autoUpdate);
    EXPECT_EQ(c.doorbell, t.doorbell);
    EXPECT_EQ(c.batchedNotify, t.batchedNotify);
    EXPECT_FALSE(h.nic0.supportsAutomaticUpdate());
}

TEST(ModernNic, DoorbellPostIsCheapAndDelivers)
{
    ModernHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst));

    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        delivered = true;
        EXPECT_EQ(d.srcNode, 0u);
        EXPECT_EQ(d.bytes, 5u);
        EXPECT_FALSE(d.notify); // no interrupt was requested
    });

    Tick post_returned = 0;
    h.sim.spawn("send", [&] {
        char payload[5] = {'w', 'o', 'r', 'l', 'd'};
        SendDesc req;
        req.src = payload;
        req.proxy = proxy;
        req.dstOffset = 128;
        req.bytes = 5;
        h.nic0.post(req);
        post_returned = h.sim.now();
    });
    h.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(std::memcmp(dst + 128, "world", 5), 0);
    // The host paid only the doorbell write; the queue had a slot, so
    // posting returned before any wire or DMA time elapsed.
    EXPECT_EQ(post_returned, h.nic0.params().doorbellCost);
}

TEST(ModernNic, NotifiableWriteWakesUserLevelWaiter)
{
    ModernHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst));

    bool data_present_at_wake = false;
    h.sim.spawn("waiter", [&] {
        h.nic1.notifyWait(42, 1);
        std::uint64_t got;
        std::memcpy(&got, dst, 8);
        data_present_at_wake = (got == 0x1234u);
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 0x1234;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notifyId = 42;
        h.nic0.post(req);
    });
    h.sim.run();
    EXPECT_TRUE(data_present_at_wake);
    EXPECT_EQ(h.nic1.notifyCount(42), 1u);
    EXPECT_EQ(h.nic1.notifyCount(7), 0u); // other ids untouched
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.notify_writes"),
              1u);
    // No interrupt was involved: counter wait is user-level.
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 0u);
}

TEST(ModernNic, CqCoalescesNotificationsIntoOneInterrupt)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame);
    h.nic1.setInterruptEnable(frame, true);

    int notified = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            ++notified;
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        for (int i = 0; i < 8; ++i) {
            SendDesc req;
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = std::uint32_t(i) * 8;
            req.bytes = 8;
            req.notify = true;
            h.nic0.post(req);
        }
    });
    h.sim.run();
    EXPECT_EQ(notified, 8);
    // Eight notified arrivals, one coalesced interrupt.
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_events"), 8u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 1u);
}

TEST(ModernNic, CqTimeoutDrainsPartialBatch)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame);
    h.nic1.setInterruptEnable(frame, true);

    Tick notified_at = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            notified_at = h.sim.now();
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notify = true;
        h.nic0.post(req);
    });
    h.sim.run();
    // One lone CQE sat out the coalescing window, then interrupted.
    EXPECT_GT(notified_at, h.nic0.params().cqTimeout);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_events"), 1u);
}

TEST(ModernNic, UrgentEventBypassesCoalescing)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame);
    h.nic1.setInterruptEnable(frame, true);

    Tick notified_at = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            notified_at = h.sim.now();
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notify = true;
        req.urgent = true;
        h.nic0.post(req);
    });
    h.sim.run();
    // Solicited event: the interrupt fired well before the timer.
    EXPECT_GT(notified_at, 0u);
    EXPECT_LT(notified_at, h.nic0.params().cqTimeout);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
}

TEST(ModernNic, NotifyWaitOnNonBatchedAdapterDies)
{
    NicHarness h; // ShrimpNic: no batched-notification support
    h.sim.spawn("p", [&] {
        EXPECT_DEATH(h.nic0.notifyWait(1, 1), "batchedNotify");
    });
    h.sim.run();
}
