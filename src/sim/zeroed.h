/// \file
/// Zero-initialized arrays that cost only the pages they touch.
///
/// A `Zeroed<T>` owns `n` elements of T, all zero, in a private anonymous
/// mapping. The kernel backs each page with the shared zero page until it
/// is first written, so elements nobody writes cost no construction time
/// and no resident memory, and zero() gives the pages back instead of
/// writing them. The mapping is explicit rather than calloc'd: once a
/// large block has been freed, glibc serves the next one from the heap
/// and clears it with memset, touching every page.
///
/// The RPU memories (paper Figure 3) and each core's decoded-instruction
/// cache live in these: about 1.6 MB (410 pages) per RPU, of which a
/// forwarder run touches about 55 pages.

#ifndef ROSEBUD_SIM_ZEROED_H
#define ROSEBUD_SIM_ZEROED_H

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

namespace rosebud::sim {

/// `size()` elements of T on demand-zero pages. T must be trivially
/// copyable, and its all-zero byte pattern must be the value a fresh or
/// re-zeroed element is meant to hold.
template <typename T>
class Zeroed {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
    explicit Zeroed(size_t size)
        : size_(size), bytes_(std::max<size_t>(size * sizeof(T), 1)) {  // mmap rejects 0
        void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
        if (p == MAP_FAILED) throw std::bad_alloc();
        data_ = static_cast<T*>(p);
    }
    ~Zeroed() { munmap(data_, bytes_); }
    Zeroed(const Zeroed&) = delete;
    Zeroed& operator=(const Zeroed&) = delete;

    size_t size() const { return size_; }
    T* data() { return data_; }
    T& operator[](size_t i) { return data_[i]; }
    const T& operator[](size_t i) const { return data_[i]; }
    std::span<const T> span() const { return {data_, size_}; }

    /// Set every element back to zero by dropping the pages: they fault
    /// back in as zero pages when next touched. Should the kernel refuse,
    /// the bytes are cleared in place.
    void zero() {
        if (madvise(data_, bytes_, MADV_DONTNEED) != 0) {
            std::memset(static_cast<void*>(data_), 0, bytes_);
        }
    }

 private:
    size_t size_;
    size_t bytes_;  ///< mapped length
    T* data_ = nullptr;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_ZEROED_H
