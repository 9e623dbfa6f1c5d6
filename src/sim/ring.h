/// \file
/// Grow-only ring buffer: the queue storage of sim::Fifo and of the
/// distribution fabric's packet queues.
///
/// A std::deque allocates and frees a block every few hundred bytes of
/// traffic even at constant occupancy. A ring reaches its high-water
/// capacity once and then never touches the heap again. The capacity is
/// a power of two that doubles when a push finds the ring full; it never
/// shrinks.

#ifndef ROSEBUD_SIM_RING_H
#define ROSEBUD_SIM_RING_H

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rosebud::sim {

template <typename T>
class Ring {
 public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /// Element `i` counted from the oldest. Precondition: i < size().
    T& operator[](size_t i) {
        assert(i < size_);
        return buf_[(head_ + i) & mask()];
    }
    const T& operator[](size_t i) const {
        assert(i < size_);
        return buf_[(head_ + i) & mask()];
    }

    T& front() { return (*this)[0]; }
    const T& front() const { return (*this)[0]; }
    T& back() { return (*this)[size_ - 1]; }
    const T& back() const { return (*this)[size_ - 1]; }

    void push_back(T v) {
        if (size_ == buf_.size()) grow();
        buf_[(head_ + size_) & mask()] = std::move(v);
        ++size_;
    }

    /// Drop the oldest element. Its slot is reset, so a ring of shared
    /// pointers never keeps a departed element alive.
    void pop_front() {
        assert(size_ > 0);
        buf_[head_] = T();
        head_ = (head_ + 1) & mask();
        --size_;
    }

    void clear() {
        while (size_ > 0) pop_front();
        head_ = 0;
    }

 private:
    size_t mask() const { return buf_.size() - 1; }

    void grow() {
        std::vector<T> bigger(buf_.empty() ? 4 : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_RING_H
