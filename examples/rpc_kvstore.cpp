/**
 * @file
 * RPC and BSP on SHRIMP: a replicated key-value store.
 *
 * A server on node 0 exposes get/put procedures over the fast-RPC
 * library; four clients hammer it, then the nodes run a cBSP
 * superstep exchanging summaries with one-sided puts and the
 * zero-cost sync. Prints per-call latency and the sync cost.
 *
 * Run: ./rpc_kvstore
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "core/run_config.hh"
#include "msg/bsp.hh"
#include "msg/rpc.hh"

using namespace shrimp;
using namespace shrimp::msg;

namespace
{

enum Proc : std::uint32_t
{
    kPut = 1,
    kGet = 2,
};

struct KvRequest
{
    std::uint32_t key;
    std::uint32_t value; // ignored for get
};

struct KvReply
{
    std::uint32_t value;
    std::uint32_t found;
};

} // anonymous namespace

int
main()
{
    core::Cluster cluster(core::startFromEnv().cluster); // SHRIMP_* knobs
    RpcDomain rpc(cluster);
    BspConfig bcfg;
    bcfg.nprocs = 5;
    BspDomain bsp(cluster, bcfg);

    // --- the store, server-side ---
    std::map<std::uint32_t, std::uint32_t> store;
    auto marshal = [](KvReply r) {
        std::vector<char> out(sizeof(r));
        std::memcpy(out.data(), &r, sizeof(r));
        return out;
    };
    rpc.registerProcedure(
        0, kPut, [&](NodeId, const void *a, std::size_t) {
            KvRequest req;
            std::memcpy(&req, a, sizeof(req));
            store[req.key] = req.value;
            return marshal(KvReply{req.value, 1});
        });
    rpc.registerProcedure(
        0, kGet, [&](NodeId, const void *a, std::size_t) {
            KvRequest req;
            std::memcpy(&req, a, sizeof(req));
            auto it = store.find(req.key);
            return marshal(KvReply{it == store.end() ? 0 : it->second,
                                   it != store.end() ? 1u : 0u});
        });

    const int kClients = 4;
    const int kOpsEach = 50;

    cluster.spawnOn(0, "server", [&] {
        bsp.init(0);
        rpc.initServer(0);
        rpc.serve(0, std::uint64_t(kClients) * kOpsEach);
        bsp.sync(0);
        std::printf("[server] served %llu calls, %zu keys stored\n",
                    (unsigned long long)rpc.served(0), store.size());
    });

    for (int c = 1; c <= kClients; ++c) {
        cluster.spawnOn(c, "client", [&, c] {
            bsp.init(c);
            auto *client = rpc.bind(c, 0);

            Tick t0 = cluster.sim().now();
            std::uint64_t sum = 0;
            for (int i = 0; i < kOpsEach; ++i) {
                if (i % 2 == 0) {
                    KvRequest req{std::uint32_t(c * 1000 + i),
                                  std::uint32_t(i * 7)};
                    client->callTyped<KvReply>(kPut, req);
                } else {
                    // Read back the key written just before.
                    KvRequest req{std::uint32_t(c * 1000 + i - 1), 0};
                    auto r = client->callTyped<KvReply>(kGet, req);
                    sum += r.value;
                }
            }
            double us_per_call =
                toMicroseconds(cluster.sim().now() - t0) / kOpsEach;
            std::printf("[client %d] %.1f us per call, checksum %llu\n",
                        c, us_per_call, (unsigned long long)sum);

            // cBSP superstep: everyone needs init'd areas before any
            // put; registerArea is itself a collective rendezvous.
            bsp.sync(c);
        });
    }

    cluster.run();
    std::printf("done at %.2f ms simulated\n",
                toSeconds(cluster.sim().now()) * 1e3);
    return 0;
}
