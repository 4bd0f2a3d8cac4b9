#pragma once
// 64-bit FNV-1a: a tiny, fixed, platform-independent digest for pinning
// byte streams — checkpoint files, gathered solution fields — in golden
// files and run logs. Not cryptographic; it only has to change when a
// single bit of the state does.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tp::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Digest `n` bytes at `data`, chained through `h` so several buffers
/// fold into one digest.
[[nodiscard]] inline std::uint64_t fnv1a_bytes(const void* data,
                                               std::size_t n,
                                               std::uint64_t h = kFnvOffset) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s,
                                         std::uint64_t h = kFnvOffset) {
    return fnv1a_bytes(s.data(), s.size(), h);
}

/// Sixteen lowercase hex digits, zero-padded.
[[nodiscard]] inline std::string digest_hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

}  // namespace tp::util
