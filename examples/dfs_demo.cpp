/**
 * @file
 * The stream-sockets library in action: a miniature distributed file
 * service. One server node exports files as 8 KB blocks; two client
 * nodes stream them down concurrently using the block-transfer
 * extension and print their throughput.
 *
 * Run: ./dfs_demo
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/run_config.hh"
#include "sockets/socket.hh"

using namespace shrimp;
using namespace shrimp::sock;

int
main()
{
    core::Cluster cluster(core::startFromEnv().cluster); // SHRIMP_* knobs
    SocketDomain dom(cluster);

    const std::size_t kBlock = 8192;
    const int kBlocks = 128; // 1 MB per client
    const int kClients = 2;

    // --- server on node 0, one service process per client ---
    for (int c = 0; c < kClients; ++c) {
        cluster.spawnOn(0, "server", [&] {
            Socket *s = dom.accept(0, 21);
            std::vector<char> block(kBlock);
            for (int b = 0; b < kBlocks; ++b) {
                std::uint32_t want;
                s->recvExact(&want, sizeof(want));
                for (std::size_t i = 0; i < kBlock; ++i)
                    block[i] = char(want * 7 + i);
                cluster.node(0).cpu().compute(microseconds(40));
                s->sendBlock(block.data(), kBlock);
            }
        });
    }

    // --- clients on nodes 1 and 2 ---
    std::vector<double> mbps(kClients, 0.0);
    for (int c = 0; c < kClients; ++c) {
        cluster.spawnOn(c + 1, "client", [&, c] {
            Socket *s = dom.connect(c + 1, 0, 21);
            std::vector<char> block(kBlock);
            Tick t0 = cluster.sim().now();
            std::uint64_t check = 0;
            for (std::uint32_t b = 0; b < kBlocks; ++b) {
                s->send(&b, sizeof(b));
                s->recvBlock(block.data(), kBlock);
                check += std::uint8_t(block[5]);
            }
            double secs = toSeconds(cluster.sim().now() - t0);
            mbps[c] = double(kBlocks) * kBlock / secs / 1e6;
            std::printf("[client %d] read %d blocks, checksum %llu\n",
                        c, kBlocks, (unsigned long long)check);
        });
    }

    cluster.run();
    for (int c = 0; c < kClients; ++c)
        std::printf("client %d throughput: %.2f MB/s\n", c, mbps[c]);
    return 0;
}
