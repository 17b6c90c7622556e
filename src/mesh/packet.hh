/**
 * @file
 * The generic unit of transfer on the routing backplane.
 *
 * The mesh is payload-agnostic: the network interface attaches its own
 * packet structure as an opaque payload, and the mesh models only the
 * on-wire size, source and destination — plus, for the link-level
 * reliability protocol, a per-pair sequence number and a header/payload
 * checksum that fault injection may perturb in flight. Observability
 * metadata (lifecycle stamps, causal context) rides in the NI payload
 * (nic::PacketTrace), never here.
 */

#ifndef SHRIMP_MESH_PACKET_HH
#define SHRIMP_MESH_PACKET_HH

#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace shrimp::mesh
{

/** Link-level packet kind: NI payload data or reliability control. */
enum class PacketKind : std::uint8_t
{
    Data, //!< carries an opaque NI payload
    Ack,  //!< cumulative acknowledgement; seq = next expected
    Nack, //!< go-back-N resend request; seq = first missing
};

/** A packet in flight on the backplane. */
struct Packet
{
    /** Sending node. */
    NodeId src = kInvalidNode;

    /** Destination node. */
    NodeId dst = kInvalidNode;

    /** Total on-wire size, including routing and NI headers. */
    std::uint32_t wireBytes = 0;

    /**
     * Hardware (wire) packets this mesh event stands for. The NI
     * aggregates automatic-update trains into one mesh packet; this
     * keeps the mesh's packet accounting in wire packets.
     */
    std::uint32_t hwPackets = 1;

    /** Data or reliability control. */
    PacketKind kind = PacketKind::Data;

    /**
     * Reliability protocol field. Data: per-(src,dst) sequence number
     * (0 = protocol disabled). Ack/Nack: cumulative sequence.
     */
    std::uint64_t seq = 0;

    /**
     * Header/payload checksum (packetChecksum). In-flight corruption
     * perturbs it; receivers verify and drop on mismatch.
     */
    std::uint64_t checksum = 0;

    /** Opaque NI-level payload, handed to the receiver untouched. */
    std::shared_ptr<void> payload;
};

// Every mesh event copies a Packet (pool slot, retransmit buffer,
// delivery), so it stays header-sized. Per-packet observability
// belongs in the NI payload, which the copies share by pointer.
static_assert(sizeof(Packet) <= 56,
              "mesh::Packet carries protocol state only");

/**
 * The model's stand-in for a CRC over the packet header and payload:
 * a hash of the header fields the protocol relies on. Deterministic
 * across runs (no pointers); fault corruption XORs a nonzero mask
 * into Packet::checksum so verification must fail.
 */
inline std::uint64_t
packetChecksum(const Packet &p)
{
    std::uint64_t x = std::uint64_t(p.src) |
                      (std::uint64_t(p.dst) << 32);
    x ^= std::uint64_t(p.wireBytes) * 0x9e3779b97f4a7c15ULL;
    x ^= std::uint64_t(p.hwPackets) * 0xbf58476d1ce4e5b9ULL;
    x ^= std::uint64_t(std::uint8_t(p.kind)) * 0x94d049bb133111ebULL;
    x ^= p.seq * 0xd6e8feb86659fd93ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace shrimp::mesh

#endif // SHRIMP_MESH_PACKET_HH
