#pragma once
// Per-thread bump allocator for kernel scratch space.
//
// Hot loops (flux sweeps, SEM tensor contractions, remap) need short-lived
// working buffers whose size is known only at run time. Allocating them
// with std::vector inside step() churns the heap every RK stage; the paper's
// timing methodology assumes kernels run out of a warm working set. A
// ScratchArena hands out aligned slices from a large block and recycles the
// whole block with reset() — after the first step every allocation is a
// pointer bump, so step()/remap_state()/RK stages make zero heap
// allocations at steady state (verified in tests/test_simd.cpp).
//
// Usage:
//   auto& a = util::tls_arena();
//   util::ArenaScope scope(a);            // rewinds at scope exit
//   double* buf = a.alloc<double>(n);
//
// Not thread-safe by design: use tls_arena() so each OpenMP thread bumps
// its own arena.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace tp::util {

class ScratchArena {
  public:
    static constexpr std::size_t kAlignment = 64;  // cache line / AVX-512

    explicit ScratchArena(std::size_t initial_bytes = 1u << 16)
        : next_capacity_(round_up(initial_bytes)) {}

    ScratchArena(const ScratchArena&) = delete;
    ScratchArena& operator=(const ScratchArena&) = delete;

    /// Aligned, uninitialized storage for n objects of T. Valid until the
    /// next reset(). T must be trivially destructible (nothing is ever
    /// destroyed — the arena just rewinds).
    template <typename T>
    [[nodiscard]] T* alloc(std::size_t n) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is rewound, never destroyed");
        const std::size_t bytes = round_up(n * sizeof(T));
        if (offset_ + bytes > current_size_) grow(bytes);
        T* p = reinterpret_cast<T*>(blocks_.back().get() + offset_);
        offset_ += bytes;
        peak_ = peak_ > offset_full_ + offset_ ? peak_ : offset_full_ + offset_;
        return p;
    }

    /// Recycle everything. If the last round spilled into multiple blocks,
    /// coalesce them into one block big enough for the whole footprint, so
    /// the steady state is a single block and zero further heap traffic.
    void reset() {
        if (blocks_.size() > 1) {
            next_capacity_ = round_up(peak_);
            blocks_.clear();
            current_size_ = 0;
        }
        offset_ = 0;
        offset_full_ = 0;
    }

    /// Bytes currently handed out (diagnostics / tests).
    [[nodiscard]] std::size_t used() const { return offset_full_ + offset_; }
    /// High-water mark across the arena's lifetime.
    [[nodiscard]] std::size_t peak() const { return peak_; }
    /// Number of live blocks; 1 after a post-spill reset() warms up.
    [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

    /// Rewind to a mark taken earlier (LIFO). Only valid when no grow()
    /// happened since the mark was taken; ArenaScope uses it for the common
    /// single-block steady state and falls back to a full reset otherwise.
    struct Mark {
        std::size_t blocks;
        std::size_t offset;
    };
    [[nodiscard]] Mark mark() const { return {blocks_.size(), offset_}; }
    void rewind(Mark m) {
        if (blocks_.size() == m.blocks) {
            offset_ = m.offset;
        } else {
            reset();
        }
    }

  private:
    static std::size_t round_up(std::size_t bytes) {
        return (bytes + kAlignment - 1) & ~(kAlignment - 1);
    }

    struct AlignedDelete {
        void operator()(std::byte* p) const {
            ::operator delete[](p, std::align_val_t(kAlignment));
        }
    };
    using Block = std::unique_ptr<std::byte[], AlignedDelete>;

    void grow(std::size_t min_bytes) {
        offset_full_ += offset_;
        std::size_t size = next_capacity_;
        while (size < min_bytes) size *= 2;
        blocks_.emplace_back(static_cast<std::byte*>(
            ::operator new[](size, std::align_val_t(kAlignment))));
        current_size_ = size;
        offset_ = 0;
        next_capacity_ = size * 2;
    }

    std::vector<Block> blocks_;
    std::size_t current_size_ = 0;   // capacity of blocks_.back()
    std::size_t offset_ = 0;         // bump position in blocks_.back()
    std::size_t offset_full_ = 0;    // bytes consumed in earlier blocks
    std::size_t peak_ = 0;
    std::size_t next_capacity_;
};

/// RAII rewind: captures the arena position and restores it on destruction,
/// so nested kernels can stack allocations without explicit bookkeeping.
class ArenaScope {
  public:
    explicit ArenaScope(ScratchArena& a) : arena_(a), mark_(a.mark()) {}
    ~ArenaScope() { arena_.rewind(mark_); }
    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;

  private:
    ScratchArena& arena_;
    ScratchArena::Mark mark_;
};

/// The calling thread's arena. Each OpenMP thread gets its own, so kernels
/// can grab scratch inside parallel regions without synchronization.
[[nodiscard]] inline ScratchArena& tls_arena() {
    thread_local ScratchArena arena;
    return arena;
}

/// Make room for n elements in a mesh-sized buffer kept across rezones
/// whose contents are about to be rewritten. Growth past the capacity
/// drops the old contents instead of copying them and reserves 2x
/// headroom, so a growing mesh reallocates about once per doubling instead
/// of on most rezones. Each reallocation first-touches a fresh block;
/// untouched headroom costs address space, not resident memory.
template <typename T>
void reserve_for_refill(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) {
        v.clear();
        v.reserve(2 * n);
    }
}

}  // namespace tp::util
