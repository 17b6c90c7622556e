/**
 * @file
 * Message passing on SHRIMP: NX ping-pong latency and bandwidth.
 *
 * Exercises the NX-compatible library (csend/crecv, typed messages,
 * global sync) over the VMMC substrate, and prints half-round-trip
 * latency and streamed bandwidth for a range of message sizes — the
 * kind of microbenchmark used throughout the paper's Sec 4.
 *
 * Run: ./nx_pingpong
 */

#include <cstdio>
#include <vector>

#include "core/run_config.hh"
#include "msg/nx.hh"

using namespace shrimp;

int
main()
{
    core::Cluster cluster(core::startFromEnv().cluster); // SHRIMP_* knobs
    msg::NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 512 * 1024; // room for the largest streamed size
    msg::NxDomain dom(cluster, cfg);

    const std::size_t sizes[] = {8,    64,    512,   4096,
                                 16384, 65536, 131072};
    const int kPingPongs = 20;
    std::vector<double> latency_us(std::size(sizes));
    std::vector<double> bandwidth_mbs(std::size(sizes));

    cluster.spawnOn(0, "rank0", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> buf(131072, 'x');

        for (std::size_t s = 0; s < std::size(sizes); ++s) {
            std::size_t bytes = sizes[s];
            nx.gsync();

            // Latency: ping-pong.
            Tick t0 = cluster.sim().now();
            for (int i = 0; i < kPingPongs; ++i) {
                nx.csend(1, buf.data(), bytes, 1);
                nx.crecv(2, buf.data(), buf.size());
            }
            Tick rtt = cluster.sim().now() - t0;
            latency_us[s] =
                toMicroseconds(rtt) / (2.0 * kPingPongs);

            // Bandwidth: stream, then wait for one ack.
            nx.gsync();
            t0 = cluster.sim().now();
            for (int i = 0; i < kPingPongs; ++i)
                nx.csend(3, buf.data(), bytes, 1);
            char ack;
            nx.crecv(4, &ack, 1);
            double secs = toSeconds(cluster.sim().now() - t0);
            bandwidth_mbs[s] =
                double(bytes) * kPingPongs / secs / 1e6;
        }
    });

    cluster.spawnOn(1, "rank1", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(131072);

        for (std::size_t s = 0; s < std::size(sizes); ++s) {
            std::size_t bytes = sizes[s];
            nx.gsync();
            for (int i = 0; i < kPingPongs; ++i) {
                nx.crecv(1, buf.data(), buf.size());
                nx.csend(2, buf.data(), bytes, 0);
            }
            nx.gsync();
            for (int i = 0; i < kPingPongs; ++i)
                nx.crecv(3, buf.data(), buf.size());
            char ack = 1;
            nx.csend(4, &ack, 1, 0);
        }
    });

    cluster.run();

    std::printf("%10s %14s %16s\n", "bytes", "latency (us)",
                "bandwidth (MB/s)");
    for (std::size_t s = 0; s < std::size(sizes); ++s) {
        std::printf("%10zu %14.2f %16.2f\n", sizes[s], latency_us[s],
                    bandwidth_mbs[s]);
    }
    return 0;
}
