#include "firmware/programs.h"

#include "rpu/descriptor.h"
#include "rv/assembler.h"

namespace rosebud::fwlib {

using namespace rosebud::rv;
namespace rp = rosebud::rpu;

namespace {

/// Boot-time slot configuration: announce packet slots (init_slots) and
/// header slots (init_hdr_slots) to the interconnect/LB, enable only the
/// Evict and Poke interrupts (set_masks(0x30)), leave gp = IO base.
void
emit_prologue(Assembler& a, const SlotParams& slots) {
    a.lui(gp, 0x2000);  // IO base 0x02000000
    a.li(t0, int32_t(slots.count));
    a.sw(t0, rp::kRegSlotCount, gp);
    a.lui(t0, 0x1000);  // packet slots start at PMEM base
    a.sw(t0, rp::kRegSlotBase, gp);
    a.li(t0, int32_t(slots.size));
    a.sw(t0, rp::kRegSlotSize, gp);
    a.lui(t0, 0x804);  // header slots at DMEM_BASE + DMEM_SIZE/2
    a.sw(t0, rp::kRegHdrBase, gp);
    a.li(t0, 128);
    a.sw(t0, rp::kRegHdrSize, gp);
    a.li(t0, 0x30);  // enable only Evict + Poke
    a.sw(t0, rp::kRegIrqMask, gp);
    a.sw(zero, rp::kRegSlotCommit, gp);
}

}  // namespace

Program
forwarder(const SlotParams& slots, bool hash_prepended) {
    Assembler a;
    emit_prologue(a, slots);
    if (hash_prepended) a.lui(s1, 0x40);  // 4 << 16: 4 off the length field
    // The minimal descriptor loop: 8 instructions, 16 cycles when a
    // descriptor is always pending (Section 6.1); 10 and 18 with
    // hash_prepended.
    a.label("loop");
    a.lw(a0, rp::kRegRecvLow, gp);      // 3 cycles (MMIO load)
    a.beqz(a0, "loop");                 // 1 cycle not taken
    a.lw(a1, rp::kRegRecvHigh, gp);     // 3
    a.sw(zero, rp::kRegRecvRelease, gp);// 2
    a.xori(a0, a0, 1);                  // 1: swap output port 0 <-> 1
    if (hash_prepended) {
        // Send the frame without the 4-byte hash word in front of it.
        a.sub(a0, a0, s1);              // 1: length - 4
        a.addi(a1, a1, 4);              // 1: address + 4
    }
    a.sw(a0, rp::kRegSendLow, gp);      // 2
    // 2: slot-default address, or past the hash word
    a.sw(hash_prepended ? a1 : zero, rp::kRegSendHigh, gp);
    a.j("loop");                        // 2
    return {a.assemble(), 0};
}

Program
two_step_forwarder(unsigned rpu_count, const SlotParams& slots) {
    Assembler a;
    emit_prologue(a, slots);
    unsigned half = rpu_count / 2;

    a.lw(t2, rp::kRegCoreId, gp);
    a.li(t3, int32_t(half));
    a.bltu(t2, t3, "first_stage");

    // --- second stage: return loopback packets to the wire -----------------
    a.andi(s4, t2, 1);  // spread across both physical ports
    a.label("loop2");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "loop2");
    a.sw(zero, rp::kRegRecvRelease, gp);
    a.andi(a0, a0, -16);  // clear port
    a.or_(a0, a0, s4);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.j("loop2");

    // --- first stage: relay to the partner RPU over loopback ----------------
    a.label("first_stage");
    a.add(t4, t2, t3);   // partner id
    a.slli(s3, t4, 8);   // partner << 8 for SEND_DEST
    a.li(t6, 1);         // "denied" response code
    a.sw(t4, rp::kRegLbSlotReq, gp);  // prefetch the first remote slot
    a.label("loop1");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "loop1");
    a.sw(zero, rp::kRegRecvRelease, gp);
    a.label("poll_slot");
    a.lw(t5, rp::kRegLbSlotResp, gp);
    a.beqz(t5, "poll_slot");
    a.bne(t5, t6, "got_slot");
    a.sw(t4, rp::kRegLbSlotReq, gp);  // denied (partner full): retry
    a.j("poll_slot");
    a.label("got_slot");
    a.andi(s2, t5, 0xff);
    a.or_(s2, s2, s3);
    a.sw(s2, rp::kRegSendDest, gp);
    a.ori(a0, a0, 3);  // port bits (0 or 1) -> 3 = loopback
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.sw(t4, rp::kRegLbSlotReq, gp);  // prefetch the next remote slot
    a.j("loop1");
    return {a.assemble(), 0};
}

Program
firewall(const SlotParams& slots) {
    Assembler a;
    emit_prologue(a, slots);
    a.lui(s5, 0x2010);  // IO_EXT (accelerator wrapper)
    a.lui(s6, 0x804);   // header slots

    a.label("loop");
    a.lw(a0, rp::kRegRecvLow, gp);       // 3
    a.beqz(a0, "loop");                  // 1
    a.sw(zero, rp::kRegRecvRelease, gp); // 2
    // Header-slot address from the descriptor's slot field.
    a.srli(t0, a0, 4);                   // 1
    a.andi(t0, t0, 0xff);                // 1
    a.addi(t0, t0, -1);                  // 1
    a.slli(t0, t0, 7);                   // 1
    a.add(t0, t0, s6);                   // 1
    // EtherType == IPv4? (bytes are network order; lhu gives 0x0008)
    a.lhu(t1, 12, t0);                   // 2
    a.li(t2, 8);                         // 1
    a.bne(t1, t2, "drop");               // 1
    // Source IP (raw bytes) -> accelerator, read the match flag.
    a.lw(t3, 26, t0);                    // 2
    a.sw(t3, 0x00, s5);                  // 2: ACC_SRC_IP
    a.lbu(t4, 0x04, s5);                 // 3: ACC_FW_MATCH
    a.bnez(t4, "drop");                  // 1
    a.xori(a0, a0, 1);                   // 1: forward out the other port
    a.label("send");
    a.sw(a0, rp::kRegSendLow, gp);       // 2
    a.sw(zero, rp::kRegSendHigh, gp);    // 2
    a.j("loop");                         // 2
    a.label("drop");
    a.slli(a0, a0, 20);  // length := 0 (keep slot and port bits)
    a.srli(a0, a0, 20);
    a.j("send");
    return {a.assemble(), 0};
}

namespace {

/// Offsets into the header copy; shifted by 4 when the hash LB prepends
/// the flow hash.
struct HdrOffsets {
    int32_t eth_type;
    int32_t protocol;
    int32_t ports;
    int32_t tcp_seq;
    int32_t tcp_payload;
    int32_t udp_payload;
};

constexpr HdrOffsets kPlain{12, 23, 34, 38, 54, 42};
constexpr HdrOffsets kHashed{16, 27, 38, 42, 58, 46};

/// Pigasus accelerator register offsets (paper Appendix B).
constexpr int32_t kAccCtrl = 0x00;
constexpr int32_t kAccDmaLen = 0x04;
constexpr int32_t kAccDmaAddr = 0x08;
constexpr int32_t kAccPorts = 0x0c;
constexpr int32_t kAccStateH = 0x14;
constexpr int32_t kAccSlot = 0x18;
constexpr int32_t kAccRuleId = 0x1c;

/// Emit the shared match-drain path ("chkmatch"): forwards safe packets at
/// end-of-packet, appends rule ids and redirects matches to the host.
/// Expects: gp=IO, s5=IO_EXT, s7=ctx base, s8=PMEM base, s9=1, s10=2.
/// `strip_hash` removes the 4-byte prepended hash before wire forwarding.
void
emit_match_drain(Assembler& a, bool strip_hash) {
    a.label("chkmatch");
    a.lbu(t0, kAccCtrl, s5);  // ACC_PIG_MATCH
    a.beqz(t0, "main");
    a.lw(t1, kAccRuleId, s5);
    a.bnez(t1, "havematch");

    // End of packet: release the marker and send the packet on.
    a.lbu(t2, kAccSlot, s5);
    a.sw(s10, kAccCtrl, s5);  // CTRL = 2 (release)
    a.slli(t4, t2, 3);
    a.add(t4, t4, s7);
    a.lw(a0, 0, t4);
    if (strip_hash) {
        a.lw(a1, 4, t4);
        a.addi(a1, a1, 4);     // skip the prepended hash
        a.srli(t5, a0, 16);    // len -= 4
        a.addi(t5, t5, -4);
        a.slli(t5, t5, 16);
        a.slli(a0, a0, 20);
        a.srli(a0, a0, 20);
        a.or_(a0, a0, t5);
        a.xori(a0, a0, 1);
        a.sw(a0, rp::kRegSendLow, gp);
        a.sw(a1, rp::kRegSendHigh, gp);
    } else {
        a.xori(a0, a0, 1);
        a.sw(a0, rp::kRegSendLow, gp);
        a.sw(zero, rp::kRegSendHigh, gp);
    }
    a.j("main");

    // Match: append the rule id after the payload, mark for the host.
    a.label("havematch");
    a.lbu(t2, kAccSlot, s5);
    a.slli(t4, t2, 3);
    a.add(t4, t4, s7);
    a.lw(a0, 0, t4);   // ctx desc low
    a.lw(t3, 4, t4);   // ctx data address
    // Rebase the data address into packet memory: the context always holds
    // a PMEM slot address (low 20 bits = offset), and spelling that out
    // lets the static certifier bound the rule-id append below (the
    // text-write-separation proof). Runtime no-op.
    a.slli(t3, t3, 12);
    a.srli(t3, t3, 12);
    a.add(t3, t3, s8);
    a.srli(t5, a0, 16);
    a.add(t6, t3, t5);  // data + len
    a.addi(t6, t6, 3);  // align up to 4
    a.andi(t6, t6, -4);
    a.sw(t1, 0, t6);    // append rule id (packet memory)
    a.sub(t5, t6, t3);
    a.addi(t5, t5, 4);  // new length
    a.slli(a0, a0, 20);
    a.srli(a0, a0, 20);
    a.andi(a0, a0, -16);
    // The end-of-packet send path XORs the port bit; store 3 so the final
    // descriptor reads port 2 = host.
    a.ori(a0, a0, 3);
    a.slli(t5, t5, 16);
    a.or_(a0, a0, t5);
    a.sw(a0, 0, t4);    // update ctx
    a.sw(s10, kAccCtrl, s5);  // release this match
    a.j("chkmatch");
}

/// Emit the accelerator submit path. Expects a0=desc, a1=data addr,
/// t0=slot, t5=payload offset, t6=raw port word, s2=STATE_H value.
/// Falls through to `next_label` via jump.
void
emit_submit(Assembler& a, const char* next_label) {
    a.label("submit");
    a.add(s3, a1, t5);
    a.sw(s3, kAccDmaAddr, s5);
    a.srli(s4, a0, 16);
    a.sub(s4, s4, t5);
    a.sw(s4, kAccDmaLen, s5);
    a.sw(t6, kAccPorts, s5);
    a.sw(s2, kAccStateH, s5);
    a.sw(t0, kAccSlot, s5);
    a.sw(s9, kAccCtrl, s5);  // CTRL = 1 (start)
    a.j(next_label);
}

}  // namespace

Program
pigasus_hw_reorder(const SlotParams& slots) {
    Assembler a;
    emit_prologue(a, slots);
    const HdrOffsets& off = kPlain;
    a.lui(s5, 0x2010);  // IO_EXT
    a.lui(s6, 0x804);   // header slots
    a.lui(s7, 0x800);   // slot contexts in DMEM
    a.lui(s8, 0x1000);  // PMEM base
    a.li(s9, 1);
    a.li(s10, 2);
    a.li(s11, 0x01ffffff);  // TCP state word (Appendix B)

    a.label("main");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "chkmatch");
    a.lw(a1, rp::kRegRecvHigh, gp);
    a.sw(zero, rp::kRegRecvRelease, gp);
    // Slot index and context save.
    a.srli(t0, a0, 4);
    a.andi(t0, t0, 0xff);
    a.slli(t1, t0, 3);
    a.add(t1, t1, s7);
    a.sw(a0, 0, t1);
    a.sw(a1, 4, t1);
    // Header-slot address.
    a.addi(t2, t0, -1);
    a.slli(t2, t2, 7);
    a.add(t2, t2, s6);
    // EtherType.
    a.lhu(t3, off.eth_type, t2);
    a.li(t4, 8);
    a.bne(t3, t4, "nonip");
    // Protocol.
    a.lbu(t3, off.protocol, t2);
    a.addi(t4, t3, -6);
    a.bnez(t4, "maybe_udp");
    // TCP.
    a.li(t5, off.tcp_payload);
    a.lw(t6, off.ports, t2);
    a.mv(s2, s11);
    a.j("submit");
    a.label("maybe_udp");
    a.addi(t4, t4, -11);  // protocol == 17?
    a.bnez(t4, "nonip");
    a.li(t5, off.udp_payload);
    a.lw(t6, off.ports, t2);
    a.mv(s2, zero);
    a.j("submit");
    a.label("nonip");
    a.slli(a0, a0, 20);  // length := 0, drop
    a.srli(a0, a0, 20);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.j("main");

    emit_submit(a, "chkmatch");
    emit_match_drain(a, /*strip_hash=*/false);
    return {a.assemble(), 0};
}

Program
pigasus_sw_reorder(const SlotParams& slots, unsigned reorder_cap) {
    // The held-packet list below has 16 word slots (indices masked with
    // andi 15 so the verifier can bound every access).
    if (reorder_cap > 16) reorder_cap = 16;
    Assembler a;
    emit_prologue(a, slots);
    const HdrOffsets& off = kHashed;

    // Remove flow-table entry a3 from the held-packet list (swap the last
    // element into the hole) and drop the occupancy count. The list lives
    // at DMEM 0x1000 (above the slot-context table), one word per held
    // packet: the flow-table entry's address. Clobbers t4/t5/t6.
    auto emit_unheld = [&](const std::string& tag) {
        a.lui(t5, 0x801);
        a.mv(t4, zero);
        a.label("unh_" + tag);
        a.andi(t6, t4, 15);
        a.slli(t6, t6, 2);
        a.add(t6, t6, t5);
        a.lw(t6, 0, t6);
        a.beq(t6, a3, "unf_" + tag);
        a.addi(t4, t4, 1);
        a.blt(t4, s0, "unh_" + tag);
        a.j("und_" + tag);  // not listed (cannot happen; keep the count)
        a.label("unf_" + tag);
        a.addi(s0, s0, -1);
        a.andi(t6, s0, 15);
        a.slli(t6, t6, 2);
        a.add(t6, t6, t5);
        a.lw(t6, 0, t6);  // last element
        a.andi(t4, t4, 15);
        a.slli(t4, t4, 2);
        a.add(t4, t4, t5);
        a.sw(t6, 0, t4);  // fills the hole
        a.label("und_" + tag);
    };
    a.lui(s5, 0x2010);   // IO_EXT
    a.lui(s6, 0x804);    // header slots
    a.lui(s7, 0x800);    // slot contexts in DMEM
    a.lui(s8, 0x1000);   // PMEM base
    a.li(s9, 1);
    a.li(s10, 2);
    a.li(s11, 0x01ffffff);
    a.lui(a7, 0x1080);   // flow table: PMEM scratchpad above the slots
    a.lui(a6, 0x10);     // 0xff00 (bswap mask)
    a.addi(a6, a6, -256);
    a.lui(s1, 0xff0);    // 0xff0000 (bswap mask)
    a.mv(s0, zero);      // held-packet count (reorder buffer occupancy)

    a.label("main");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "sweep");
    a.lw(a1, rp::kRegRecvHigh, gp);
    a.sw(zero, rp::kRegRecvRelease, gp);
    a.srli(t0, a0, 4);
    a.andi(t0, t0, 0xff);
    a.slli(t1, t0, 3);
    a.add(t1, t1, s7);
    a.sw(a0, 0, t1);
    a.sw(a1, 4, t1);
    a.addi(t2, t0, -1);
    a.slli(t2, t2, 7);
    a.add(t2, t2, s6);
    a.label("parse");  // held-packet reentry point (t0/a0/a1/t2 set up)
    a.lhu(t3, off.eth_type, t2);
    a.li(t4, 8);
    a.bne(t3, t4, "nonip");
    a.lbu(t3, off.protocol, t2);
    a.addi(t4, t3, -6);
    a.bnez(t4, "maybe_udp");

    // --- TCP: software flow reordering (Section 7.1.2) ----------------------
    // The LB prepended the 4-byte flow hash; reuse it (no recomputation).
    a.lw(a2, 0, t2);       // flow hash
    // Entry index: hash bits [17:3] — the LB already consumed the low 3
    // bits to pick the RPU, so together 18 hash bits are covered (paper
    // Section 7.1.2). 16-byte entry stride.
    a.slli(a3, a2, 14);
    a.srli(a3, a3, 13);
    a.andi(a3, a3, -16);
    a.add(a3, a3, a7);
    a.lw(a4, 0, a3);       // entry: stored hash
    // Sequence number (network order) -> t3 (host order).
    a.lw(a5, off.tcp_seq, t2);
    a.srli(t3, a5, 24);
    a.srli(t4, a5, 8);
    a.and_(t4, t4, a6);
    a.or_(t3, t3, t4);
    a.slli(t4, a5, 8);
    a.and_(t4, t4, s1);
    a.or_(t3, t3, t4);
    a.slli(t4, a5, 24);
    a.or_(t3, t3, t4);
    a.bne(a4, a2, "fresh_or_collision");
    a.lw(a4, 4, a3);       // expected sequence
    a.bne(a4, t3, "out_of_order");

    a.label("in_order");
    // next_expected = seq + payload; stamp the entry with the cycle time.
    a.srli(t4, a0, 16);
    a.addi(t4, t4, -int32_t(off.tcp_payload));
    a.add(t4, t4, t3);
    a.sw(t4, 4, a3);
    a.rdcycle(t4);
    a.sw(t4, 8, a3);
    a.lw(a2, 12, a3);      // held descriptor for this flow (0 = none)
    a.beqz(a2, "io_nohold");
    emit_unheld("io");
    a.label("io_nohold");
    a.sw(zero, 12, a3);
    a.li(t5, off.tcp_payload);
    a.lw(t6, off.ports, t2);
    a.mv(s2, s11);
    a.j("submit");

    a.label("out_of_order");
    a.bltu(t3, a4, "stale_segment");
    // Future segment: hold it (one per flow) until the gap fills. The
    // paper dedicates at most half of the packet slots (16) to reorder
    // buffering; beyond that, punt to the host.
    a.lw(t4, 12, a3);
    a.bnez(t4, "punt_held_resync");
    a.slti(t4, s0, int32_t(reorder_cap));
    a.beqz(t4, "to_host");
    a.lui(t4, 0x801);     // held list: record this flow entry
    a.andi(t5, s0, 15);
    a.slli(t5, t5, 2);
    a.add(t5, t5, t4);
    a.sw(a3, 0, t5);
    a.addi(s0, s0, 1);
    a.sw(a0, 12, a3);
    a.rdcycle(t4);
    a.sw(t4, 8, a3);
    a.j("chkmatch");

    // Reorder buffer already busy: the gap was packet loss, not
    // reordering. Punt the stale held packet to the host (paper: "in the
    // rare case of ... running out of reordering buffers, we forward the
    // corresponding packets to the host") and resynchronize the window at
    // the current packet.
    a.label("punt_held_resync");
    a.andi(t4, t4, -16);
    a.ori(t4, t4, 2);  // port = host
    a.sw(t4, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.sw(zero, 12, a3);
    emit_unheld("ph");
    a.j("in_order");

    a.label("stale_segment");
    // Retransmission/duplicate: scan it but do not move the window.
    a.mv(a2, zero);
    a.li(t5, off.tcp_payload);
    a.lw(t6, off.ports, t2);
    a.mv(s2, s11);
    a.j("submit");

    a.label("fresh_or_collision");
    a.beqz(a4, "take_over");  // empty entry: claim it
    a.lw(t4, 8, a3);       // last touch time
    a.rdcycle(t5);
    a.sub(t5, t5, t4);
    a.lui(t4, 0x4);        // ~65 us timeout: older entries are reclaimable
    a.bltu(t5, t4, "to_host");  // live collision -> punt to host
    a.label("take_over");
    // Flush a stale held packet of the evicted flow to the host so its
    // packet slot is never leaked.
    a.lw(t4, 12, a3);
    a.beqz(t4, "tk_claim");
    a.andi(t4, t4, -16);
    a.ori(t4, t4, 2);
    a.sw(t4, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    emit_unheld("tk");
    a.label("tk_claim");
    a.sw(a2, 0, a3);       // take the entry over
    a.sw(zero, 12, a3);
    a.j("in_order");

    a.label("to_host");
    a.andi(a0, a0, -16);
    a.ori(a0, a0, 2);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(a1, rp::kRegSendHigh, gp);
    a.j("main");

    // Idle-loop timeout sweep: a held packet whose gap never fills (the
    // missing segment was punted on a collision, or the flow simply
    // ended) must not sit in its packet slot forever. Check one held
    // entry per idle iteration; past the collision timeout, punt it to
    // the host and invalidate the flow entry so a new flow can claim it.
    // Surfaced by the packet conformance fuzzer (src/fuzz/pkt_fuzz.cc)
    // as end-of-traffic stuck-packet divergences.
    a.label("sweep");
    a.beqz(s0, "chkmatch");
    a.lui(t5, 0x801);
    a.lw(a3, 0, t5);       // first held flow entry (pointer from memory...
    a.slli(a3, a3, 13);    // ...re-bounded: the flow table spans 512 KiB
    a.srli(a3, a3, 13);    //    at 0x01080000, so low 19 bits + base)
    a.andi(a3, a3, -16);
    a.add(a3, a3, a7);
    a.lw(t4, 8, a3);       // last touch time
    a.rdcycle(t6);
    a.sub(t6, t6, t4);
    a.lui(t4, 0x4);        // same ~65 us horizon as collision reclaim
    a.bltu(t6, t4, "chkmatch");
    a.lw(t4, 12, a3);
    a.beqz(t4, "swp_unlist");
    a.andi(t4, t4, -16);
    a.ori(t4, t4, 2);      // port = host
    a.sw(t4, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.label("swp_unlist");
    a.sw(zero, 12, a3);
    a.sw(zero, 0, a3);     // entry empty: the next segment starts fresh
    emit_unheld("swp");
    a.j("chkmatch");

    a.label("maybe_udp");
    a.addi(t4, t4, -11);
    a.bnez(t4, "nonip");
    a.mv(a2, zero);
    a.li(t5, off.udp_payload);
    a.lw(t6, off.ports, t2);
    a.mv(s2, zero);
    a.j("submit");

    a.label("nonip");
    a.slli(a0, a0, 20);
    a.srli(a0, a0, 20);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.j("main");

    // Submit, then release a held packet if this one filled its gap.
    a.label("submit");
    a.add(s3, a1, t5);
    a.sw(s3, kAccDmaAddr, s5);
    a.srli(s4, a0, 16);
    a.sub(s4, s4, t5);
    a.sw(s4, kAccDmaLen, s5);
    a.sw(t6, kAccPorts, s5);
    a.sw(s2, kAccStateH, s5);
    a.sw(t0, kAccSlot, s5);
    a.sw(s9, kAccCtrl, s5);
    a.bnez(a2, "process_held");
    a.j("chkmatch");

    a.label("process_held");
    // Re-enter the parse path for the held descriptor (the pickup site
    // already dropped it from the held list).
    a.mv(a0, a2);
    a.srli(t0, a0, 4);
    a.andi(t0, t0, 0xff);
    a.slli(t1, t0, 3);
    a.add(t1, t1, s7);
    a.lw(a1, 4, t1);      // its data address from the context table
    a.addi(t2, t0, -1);
    a.slli(t2, t2, 7);
    a.add(t2, t2, s6);
    a.j("parse");

    emit_match_drain(a, /*strip_hash=*/true);
    return {a.assemble(), 0};
}

Program
nat(const SlotParams& slots, bool hash_prepended) {
    // NAT accelerator register offsets (accel/nat.h).
    constexpr int32_t kNatCtrl = 0x00;   // W: 1 = start / R: done pending
    constexpr int32_t kNatAddr = 0x04;
    constexpr int32_t kNatLen = 0x08;
    constexpr int32_t kNatSlot = 0x0c;
    constexpr int32_t kNatResult = 0x10;
    constexpr int32_t kNatPop = 0x14;

    Assembler a;
    emit_prologue(a, slots);
    a.lui(s5, 0x2010);  // NAT engine registers
    a.lui(s7, 0x800);   // slot contexts in DMEM
    a.li(s9, 1);

    a.label("main");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "chkdone");
    a.lw(a1, rp::kRegRecvHigh, gp);
    a.sw(zero, rp::kRegRecvRelease, gp);
    a.srli(t0, a0, 4);
    a.andi(t0, t0, 0xff);
    a.slli(t1, t0, 3);
    a.add(t1, t1, s7);
    a.sw(a0, 0, t1);  // save the descriptor until the engine finishes
    a.sw(a1, 4, t1);
    // With the hash LB, 4 prepended bytes precede the frame proper.
    const int32_t skip = hash_prepended ? 4 : 0;
    a.addi(t2, a1, skip);
    a.sw(t2, kNatAddr, s5);
    a.srli(t2, a0, 16);
    a.addi(t2, t2, -skip);
    a.sw(t2, kNatLen, s5);
    a.sw(t0, kNatSlot, s5);
    a.sw(s9, kNatCtrl, s5);
    // Fall through into the completion check.
    a.label("chkdone");
    a.lbu(t0, kNatCtrl, s5);  // done FIFO non-empty?
    a.beqz(t0, "main");
    a.lbu(t1, kNatSlot, s5);
    a.lw(t2, kNatResult, s5);
    a.sw(zero, kNatPop, s5);
    a.slli(t3, t1, 3);
    a.add(t3, t3, s7);
    a.lw(a0, 0, t3);
    a.lw(a1, 4, t3);
    a.addi(t4, t2, -3);  // kNatDropped?
    a.beqz(t4, "drop");
    // Send the frame (without the prepended hash when present).
    a.addi(a1, a1, skip);
    a.srli(t5, a0, 16);
    a.addi(t5, t5, -skip);
    a.slli(t5, t5, 16);
    a.slli(a0, a0, 20);
    a.srli(a0, a0, 20);
    a.or_(a0, a0, t5);
    a.xori(a0, a0, 1);  // translated or pass-through: out the other port
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(a1, rp::kRegSendHigh, gp);
    a.j("main");
    a.label("drop");
    a.slli(a0, a0, 20);
    a.srli(a0, a0, 20);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.j("main");
    return {a.assemble(), 0};
}

Program
chained_firewall(unsigned rpu_count, const SlotParams& slots) {
    Assembler a;
    emit_prologue(a, slots);
    a.lui(s5, 0x2010);  // firewall accelerator registers
    a.lui(s6, 0x804);   // header slots
    a.lw(t2, rp::kRegCoreId, gp);
    a.li(t3, int32_t(rpu_count / 2));
    a.add(t4, t2, t3);   // partner RPU in the second half
    a.slli(s3, t4, 8);
    a.li(s4, 1);         // "denied" response code
    a.sw(t4, rp::kRegLbSlotReq, gp);  // prefetch the first remote slot

    a.label("loop");
    a.lw(a0, rp::kRegRecvLow, gp);
    a.beqz(a0, "loop");
    a.sw(zero, rp::kRegRecvRelease, gp);
    // Firewall stage: parse the header copy, check the source IP.
    a.srli(t0, a0, 4);
    a.andi(t0, t0, 0xff);
    a.addi(t0, t0, -1);
    a.slli(t0, t0, 7);
    a.add(t0, t0, s6);
    a.lhu(t1, 12, t0);
    a.li(t5, 8);
    a.bne(t1, t5, "drop");
    a.lw(t6, 26, t0);
    a.sw(t6, 0x00, s5);   // ACC_SRC_IP
    a.lbu(t6, 0x04, s5);  // ACC_FW_MATCH
    a.bnez(t6, "drop");
    // Survivors continue down the chain over loopback.
    a.label("poll_slot");
    a.lw(t5, rp::kRegLbSlotResp, gp);
    a.beqz(t5, "poll_slot");
    a.bne(t5, s4, "got_slot");
    a.sw(t4, rp::kRegLbSlotReq, gp);
    a.j("poll_slot");
    a.label("got_slot");
    a.andi(s2, t5, 0xff);
    a.or_(s2, s2, s3);
    a.sw(s2, rp::kRegSendDest, gp);
    a.ori(a0, a0, 3);  // port -> loopback
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.sw(t4, rp::kRegLbSlotReq, gp);  // prefetch the next remote slot
    a.j("loop");
    a.label("drop");
    a.slli(a0, a0, 20);
    a.srli(a0, a0, 20);
    a.sw(a0, rp::kRegSendLow, gp);
    a.sw(zero, rp::kRegSendHigh, gp);
    a.j("loop");
    return {a.assemble(), 0};
}

Program
busy_loop(const SlotParams& slots) {
    Assembler a;
    emit_prologue(a, slots);
    // Announce slots like a healthy image, then wedge: never read RECV,
    // never release a descriptor. Assigned packets pile up in the RPU
    // until the forward-progress watchdog notices the silence.
    a.label("spin");
    a.j("spin");
    return {a.assemble(), 0};
}

Program
broadcast_sender(uint32_t period_cycles) {
    Assembler a;
    emit_prologue(a, SlotParams{4, 16 * 1024});
    a.lui(s5, 0x2020);  // broadcast region
    a.label("loop");
    a.rdcycle(t0);
    a.sw(t0, 0, s5);  // blocks while the 18-deep message FIFO is full
    if (period_cycles > 0) {
        a.li(t1, int32_t(period_cycles / 3));  // ~3 cycles per wait iteration
        a.label("wait");
        a.addi(t1, t1, -1);
        a.bnez(t1, "wait");
    }
    a.j("loop");
    return {a.assemble(), 0};
}

Program
broadcast_sink() {
    Assembler a;
    emit_prologue(a, SlotParams{4, 16 * 1024});
    // Accumulate {latency sum, count} into the host-visible debug regs.
    a.mv(s2, zero);
    a.mv(s3, zero);
    a.label("loop");
    a.lw(t0, rp::kRegBcastReady, gp);
    a.beqz(t0, "loop");
    a.lw(t1, rp::kRegBcastData, gp);
    a.sw(zero, rp::kRegBcastPop, gp);
    a.rdcycle(t2);
    a.sub(t2, t2, t1);
    a.add(s2, s2, t2);
    a.addi(s3, s3, 1);
    a.sw(s2, rp::kRegDebugLow, gp);
    a.sw(s3, rp::kRegDebugHigh, gp);
    a.j("loop");
    return {a.assemble(), 0};
}

}  // namespace rosebud::fwlib
