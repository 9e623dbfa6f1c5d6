/// \file
/// The registered FIFO primitive.
///
/// Fifos are the registered communication channels between Components: a
/// value pushed during cycle N becomes visible to consumers at cycle N+1,
/// after the kernel's commit phase — exactly like a clocked FIFO in the
/// Verilog original.
///
/// Two credit policies govern what a producer sees as free space:
///  * kSkidBuffer — `can_push` observes committed occupancy minus committed
///    pops plus staged pushes; a same-cycle pop frees the slot (combinational
///    ready, like a skid buffer). Only safe when pusher and popper are the
///    same component — otherwise the answer depends on tick order.
///  * kRegistered — `can_push` ignores same-cycle pops (registered ready, one
///    cycle of credit-return latency). Safe across components.
///
/// A Fifo participates in the dynamic race detector: every stage and pop
/// records the acting component and cycle, and a same-cycle access from a
/// *different* component that could observe tick-order-dependent state
/// faults via sim::fatal (catchable in tests). It also self-declares into
/// the kernel's elaboration netlist so the static linter in src/lint/ can
/// check widths, depths and port discipline before cycle 0, and keeps the
/// sim::NetId that declaration returns: a push or pop wakes the net's
/// components through the kernel's wake list for that id, and telemetry
/// events carry it.

#ifndef ROSEBUD_SIM_FIFO_H
#define ROSEBUD_SIM_FIFO_H

#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.h"
#include "sim/log.h"
#include "sim/ring.h"

namespace rosebud::sim {

/// How a FIFO reports free space to producers (see file comment).
enum class CreditPolicy : uint8_t { kSkidBuffer, kRegistered };

/// A clocked FIFO with bounded capacity.
template <typename T>
class Fifo : public Clocked {
 public:
    /// \param kernel     Clock domain to register with.
    /// \param name       Instance name; becomes the netlist net name.
    /// \param capacity   Maximum committed occupancy, must be >= 1.
    /// \param width_bits Datapath width recorded in the netlist (0 = unspecified).
    /// \param net_flags  NetFlag bits recorded in the netlist.
    /// \param credit     Free-space policy (see file comment).
    Fifo(Kernel& kernel, std::string name, size_t capacity,
         unsigned width_bits = 0, unsigned net_flags = 0,
         CreditPolicy credit = CreditPolicy::kSkidBuffer)
        : kernel_(kernel), name_(std::move(name)), capacity_(capacity),
          credit_(credit),
          net_(kernel.declare_net({name_, NetRecord::kFifo, width_bits, capacity_,
                                   net_flags,
                                   credit == CreditPolicy::kRegistered
                                       ? NetRecord::kCreditRegistered
                                       : NetRecord::kCreditSkid})) {
        assert(capacity >= 1);
        // Raw-field read (not size()): probes run in the host phase where
        // the race checks are moot, and must not emit telemetry events.
        kernel.register_occupancy_probe(
            name_, net_, capacity_, this,
            [this] { return stable_.size() - popped_; });
    }

    ~Fifo() override { kernel_.unregister_occupancy_probe(net_, this); }

    /// True if a push this cycle will be accepted. A false answer counts
    /// as a stalled-on-credit observation for the telemetry sink.
    bool can_push() const {
        check_credit_read();
        bool ok = credit_ == CreditPolicy::kRegistered
                      ? stable_.size() + staged_.size() < capacity_
                      : stable_.size() - popped_ + staged_.size() < capacity_;
        if (!ok) telemetry(TelemetrySink::NetEvent::kPushBlocked);
        return ok;
    }

    /// Stage a push; visible to `front`/`pop` from the next cycle.
    /// Returns false (and drops nothing — caller keeps the value) if full.
    /// A successful push wakes the net's reader components (the kernel's
    /// quiescence wake edges), so a sleeping consumer ticks again from the
    /// cycle this value becomes visible.
    [[nodiscard]] bool push(T v) {
        check_stage("push");
        if (!can_push()) return false;
        staged_.push_back(std::move(v));
        kernel_.request_commit(this);
        telemetry(TelemetrySink::NetEvent::kPushOk);
        wake_readers();
        return true;
    }

    /// True if nothing is poppable this cycle. An empty answer counts as a
    /// starvation observation (a consumer polled and found nothing).
    bool empty() const {
        check_pop_read("empty");
        bool e = popped_ >= stable_.size();
        if (e) telemetry(TelemetrySink::NetEvent::kPollEmpty);
        return e;
    }

    /// Committed occupancy visible this cycle (ignores staged pushes).
    size_t size() const {
        check_pop_read("size");
        return stable_.size() - popped_;
    }

    size_t capacity() const { return capacity_; }

    /// Free slots as seen by a producer this cycle.
    size_t free_slots() const {
        check_credit_read();
        if (credit_ == CreditPolicy::kRegistered)
            return capacity_ - (stable_.size() + staged_.size());
        return capacity_ - (stable_.size() - popped_ + staged_.size());
    }

    /// Oldest committed element. Precondition: !empty().
    const T& front() const {
        check_pop_read("front");
        assert(popped_ < stable_.size());
        return stable_[popped_];
    }

    /// Pop the oldest committed element.
    T pop() {
        check_pop_write();
        assert(popped_ < stable_.size());
        telemetry(TelemetrySink::NetEvent::kPop);
        kernel_.request_commit(this);
        // Registered credit returns with one cycle of latency, so this pop
        // is an observable event for the producer: wake it (the net's wake
        // list includes registered-credit writers) so a component sleeping
        // on a full FIFO sees the freed slot.
        if (credit_ == CreditPolicy::kRegistered) wake_readers();
        return std::move(stable_[popped_++]);
    }

    void commit() override {
        for (; popped_ > 0; --popped_) stable_.pop_front();
        for (auto& v : staged_) stable_.push_back(std::move(v));
        staged_.clear();
    }

    /// Drop all contents immediately (used on RPU reset/reconfiguration).
    /// Counts as both a stage and a pop for the race detector.
    void clear() {
        check_stage("clear");
        check_pop_write();
        stable_.clear();
        staged_.clear();
        popped_ = 0;
    }

    const std::string& name() const { return name_; }

 private:
    // --- dynamic two-phase race detector -------------------------------------
    //
    // Each check compares the acting component against the component that
    // already touched this FIFO in the same cycle. Accesses from outside
    // the tick phase (host/test code, commit handlers) are exempt: they
    // run at a well-defined point relative to the clock.

    const Component* actor() const { return kernel_.active_component(); }

    void race(const std::string& what) const {
        fatal("race on fifo '" + name_ + "': " + what + " @cycle " +
              std::to_string(kernel_.now()));
    }

    void telemetry(TelemetrySink::NetEvent ev) const {
        if (TelemetrySink* t = kernel_.telemetry()) t->net_event(net_, ev);
    }

    /// Wake the components on this net's wake list (sim/kernel.h).
    void wake_readers() {
        for (Component* c : kernel_.wake_list(net_)) c->wake();
    }

    /// Staging (push/clear): two different components staging into the same
    /// FIFO in one cycle makes the queue order depend on tick order.
    void check_stage(const char* op) {
        const Component* a = actor();
        if (!a) return;
        if (stage_cycle_ == kernel_.now() && stager_ && stager_ != a) {
            race(std::string(op) + " by '" + a->name() +
                 "' after same-cycle stage by '" + stager_->name() + "'");
        }
        stager_ = a;
        stage_cycle_ = kernel_.now();
    }

    /// Popping (pop/clear): two different components consuming in one cycle.
    void check_pop_write() {
        const Component* a = actor();
        // Host-phase pops happen before every tick of the cycle — all
        // in-tick readers see them uniformly, so they are not recorded.
        if (!a) return;
        if (pop_cycle_ == kernel_.now() && popper_ && popper_ != a) {
            race("pop by '" + a->name() + "' after same-cycle pop by '" +
                 popper_->name() + "'");
        }
        popper_ = a;
        pop_cycle_ = kernel_.now();
    }

    /// Reads that observe `popped_` (empty/size/front): order-dependent if
    /// a *different* component already popped this cycle.
    void check_pop_read(const char* op) const {
        const Component* a = actor();
        if (!a) return;
        if (pop_cycle_ == kernel_.now() && popper_ && popper_ != a) {
            race(std::string(op) + " by '" + a->name() +
                 "' after same-cycle pop by '" + popper_->name() + "'");
        }
    }

    /// Credit reads (can_push/free_slots): under kSkidBuffer these observe
    /// `popped_` too; under kRegistered they are pop-independent and safe.
    void check_credit_read() const {
        if (credit_ == CreditPolicy::kRegistered) return;
        check_pop_read("credit check");
    }

    Kernel& kernel_;
    std::string name_;
    size_t capacity_;
    CreditPolicy credit_;
    NetId net_;
    Ring<T> stable_;
    std::vector<T> staged_;
    size_t popped_ = 0;

    const Component* stager_ = nullptr;
    const Component* popper_ = nullptr;
    Cycle stage_cycle_ = ~Cycle(0);
    Cycle pop_cycle_ = ~Cycle(0);
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_FIFO_H
