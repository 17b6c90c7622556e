/**
 * @file
 * NI-level packet formats carried over the mesh as opaque payloads.
 */

#ifndef SHRIMP_NIC_PACKET_HH
#define SHRIMP_NIC_PACKET_HH

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "node/memory.hh"
#include "sim/causal.hh"
#include "sim/types.hh"

namespace shrimp::nic
{

/** On-wire header size for every packet (routing + address + flags). */
inline constexpr std::uint32_t kPacketHeaderBytes = 16;

/**
 * A data packet's trace record: the causal context of the operation
 * that sent it and the three send-side lifecycle stamps (absolute
 * ticks). The sending NIC fills it (NicBase::sendTrace, NicBase::inject)
 * and the receiving NIC's one hook (NicBase::traceReceive) turns it
 * into lifecycle stages (sim/lifecycle.hh) and causal pkt.* spans.
 * It lives in the payload, which every mesh copy of the packet -- the
 * retransmit buffer's included -- shares by pointer; the arrival stamp
 * is the receive hook's own clock. Observability only: not covered by
 * mesh::packetChecksum.
 */
struct PacketTrace
{
    causal::CauseCtx cause; //!< context of the sending operation
    Tick born = 0;          //!< send API entered (CPU starts paying)
    Tick queued = 0;        //!< accepted by the NI (queue/train flush)
    Tick injected = 0;      //!< first byte onto the backplane
};

/** One write carried by an AU packet train. */
struct AuWrite
{
    std::uint32_t offset;      //!< byte offset within the dest page
    std::uint32_t bytes;       //!< write size
    std::uint32_t dataIndex;   //!< index into the train's data blob
};

/**
 * A deliberate-update packet: one contiguous block targeting one
 * destination page.
 */
struct DuPacket
{
    NodeId srcNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    std::uint32_t dstOffset = 0;
    std::vector<char> data;
    std::uint32_t notifyId = 0;     //!< notifiable-write id, 0 = none
    bool notify = false;            //!< sender's per-transfer bit
    bool urgent = false;            //!< solicited event: skip coalescing
    bool endOfMessage = true;       //!< last packet of a library message
    PacketTrace trace;              //!< stamped at post and injection
};

/**
 * An automatic-update packet train: the writes snooped off the memory
 * bus for one destination page between two NI-visible ordering points.
 *
 * On the real hardware each entry of @ref writes that is not merged by
 * combining is a separate packet; the model aggregates them into one
 * mesh event while charging wire bytes and receiver per-packet costs
 * for @ref packetCount packets.
 */
struct AuTrainPacket
{
    NodeId srcNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    std::vector<AuWrite> writes;
    std::vector<char> data;
    std::uint32_t packetCount = 0;   //!< hardware packets represented
    std::uint32_t dataBytes = 0;     //!< total payload bytes
    bool interruptRequest = false;   //!< from the OPT entry

    /**
     * Model-level delivery confirmation: invoked by the receiving NI
     * once the writes are applied, so the sender can implement an AU
     * fence without a protocol-level acknowledgement.
     */
    std::function<void()> applied;

    /** Born and caused at the train-opening store; queued at flush. */
    PacketTrace trace;
};

/**
 * The opaque payload NICs attach to mesh packets.
 */
struct NicPayload
{
    std::variant<DuPacket, AuTrainPacket> body;

    /** The body's trace record, whichever kind it is. */
    PacketTrace &
    trace()
    {
        return std::visit([](auto &b) -> PacketTrace & { return b.trace; },
                          body);
    }
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_PACKET_HH
