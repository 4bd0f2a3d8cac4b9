#pragma once
// Runtime selection between the packed (native-width) and scalar kernel
// variants of CLAMR's flux sweep, the one kernel Table III measures both
// ways. shallow::Config::simd holds the mode:
//
//   Auto   — use the native packs when the build has a vector unit
//            (native_lanes > 1), otherwise fall back to scalar;
//   Scalar — force the W == 1 instantiation, compiled with the
//            auto-vectorizer disabled (the paper's "unvectorized" rows);
//   Native — force the widest instantiation for the kernel's compute type.
//
// Both variants are always compiled into the binary, which is what makes
// Table III a single-binary comparison (`--simd=scalar` vs
// `--simd=native` on the same executable). The mode changes *instruction
// shape only*: results are bit-identical between the two paths within any
// precision policy (see pack.hpp's determinism contract).

#include <string>

#include "simd/pack.hpp"

namespace tp::simd {

enum class Mode { Auto, Scalar, Native };

[[nodiscard]] constexpr const char* to_string(Mode m) {
    switch (m) {
        case Mode::Auto: return "auto";
        case Mode::Scalar: return "scalar";
        case Mode::Native: return "native";
    }
    return "unknown";
}

/// Parse "auto" | "scalar" | "native". Throws std::invalid_argument on
/// anything else (mirrors util::ArgParser's typed-accessor behavior).
[[nodiscard]] Mode parse_mode(const std::string& s);

/// Resolve Auto against the compiled ISA: Native when the build has vector
/// registers, Scalar otherwise. Scalar/Native pass through unchanged.
[[nodiscard]] constexpr Mode resolve(Mode m) {
    if (m != Mode::Auto) return m;
    return kNativeVectorBytes > 0 ? Mode::Native : Mode::Scalar;
}

/// True when `m` resolves to the packed path.
[[nodiscard]] constexpr bool use_native(Mode m) {
    return resolve(m) == Mode::Native;
}

}  // namespace tp::simd
