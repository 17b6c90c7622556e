/**
 * @file
 * Deterministic fault injection for the routing backplane.
 *
 * The real Paragon backplane is treated as lossless by every layer
 * above it; the fault plane lets experiments withdraw that assumption.
 * Each link crossing may drop the packet, corrupt its payload (modelled
 * as a checksum perturbation), or add switch-arbitration jitter, and
 * links can be scheduled down for transient windows.
 *
 * Determinism: every decision is a pure function of
 * (fault seed, link index, per-link crossing count) — the fault plane
 * owns its own RNG streams and never touches the simulation RNG, so
 * enabling faults does not perturb workload randomness, and identical
 * runs (including SHRIMP_JOBS sweeps) take identical faults.
 */

#ifndef SHRIMP_MESH_FAULT_HH
#define SHRIMP_MESH_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace shrimp::mesh
{

/** A scheduled transient outage of one backplane link. */
struct LinkOutage
{
    int link = -1;  //!< dense link index (Topology::linkIndex)
    Tick from = 0;  //!< first tick the link is down
    Tick until = 0; //!< first tick the link is back up
};

/** Fault-plane configuration; all defaults mean "perfect backplane". */
struct FaultParams
{
    /** Probability a packet vanishes at each link crossing. */
    double dropRate = 0.0;

    /** Probability the payload is corrupted at each link crossing. */
    double corruptRate = 0.0;

    /** Probability of extra arbitration jitter at each crossing. */
    double jitterRate = 0.0;

    /** Jitter delays are uniform in [0, maxJitter]. */
    Tick maxJitter = nanoseconds(500);

    /** Fault-plane RNG seed; independent of the workload seed. */
    std::uint64_t seed = 1;

    /** Scheduled transient link outages. */
    std::vector<LinkOutage> outages;

    /**
     * Run the NIC reliability protocol even with every rate at zero
     * (protocol-overhead measurement, golden tests).
     */
    bool forceReliability = false;

    /** Any fault source configured? */
    bool
    anyFaults() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 || jitterRate > 0.0 ||
               !outages.empty();
    }

    /** Should NICs run the link-level reliability protocol? */
    bool
    reliabilityEnabled() const
    {
        return anyFaults() || forceReliability;
    }
};

/**
 * Parse a "link:t0us:t1us" outage spec (times in microseconds, as on
 * the --fault-link-down command line). @return parse success.
 */
bool parseLinkOutage(const std::string &spec, LinkOutage &out);

/** What the fault plane did to one packet at one link crossing. */
struct FaultVerdict
{
    bool drop = false;             //!< packet vanishes at this link
    bool outage = false;           //!< the drop was a scheduled outage
    bool corrupt = false;          //!< payload corrupted in flight
    std::uint64_t corruptMask = 0; //!< nonzero checksum perturbation
    Tick jitter = 0;               //!< extra head delay at this link
};

/**
 * The per-network fault plane. Network::send consults it once per link
 * a packet's head crosses; state is one crossing counter per link.
 */
class FaultInjector
{
  public:
    /**
     * @param params Fault configuration (must have anyFaults() or
     *               forceReliability; an all-defaults injector is
     *               never constructed).
     * @param link_count Dense link-index space of the topology.
     */
    FaultInjector(const FaultParams &params, int link_count);

    const FaultParams &params() const { return _params; }

    /**
     * Decide the fate of the next packet crossing @p link, whose head
     * reaches the link at @p when. Advances the link's crossing
     * counter; the verdict is a pure function of
     * (seed, link, crossing index) plus the outage schedule.
     */
    FaultVerdict crossLink(int link, Tick when);

  private:
    FaultParams _params;
    std::vector<std::uint64_t> crossings; //!< per-link crossing count
};

} // namespace shrimp::mesh

#endif // SHRIMP_MESH_FAULT_HH
