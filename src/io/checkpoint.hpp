#pragma once
// Checkpoint I/O policy shared by the shallow-water and SEM solvers.
//
// The v1 checkpoint format stores raw storage-precision arrays. The v2
// format (DESIGN.md §14) replaces each state-array payload with a
// fixed-rate compressed stream (compress/fixedrate) whose per-array bit
// budget is either a fixed rate or derived from the precision policy's
// ULP-drift budget: the rate is the smallest one whose worst-case
// reconstruction error stays at or below `drift_budget_ulp` units in the
// last place of the *storage type* at the array's peak magnitude. That
// keeps compression error provably below the noise floor the precision
// policy already tolerates — the same argument the runtime governor makes
// for demoting compute precision.
//
// This header is dependency-light on purpose (types + inline helpers
// only), so util/cli can parse `--checkpoint-compress` without dragging
// solver libraries into the bottom of the stack.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/fixedrate.hpp"
#include "fp/half.hpp"
#include "obs/json.hpp"

namespace tp::io {

enum class CheckpointCompress {
    Off,    ///< v1: raw storage-precision arrays (the default)
    Drift,  ///< v2: per-array rate derived from the ULP-drift budget
    Fixed,  ///< v2: one explicit rate for every array
};

struct CheckpointOptions {
    CheckpointCompress mode = CheckpointCompress::Off;
    int bits = 16;  ///< rate for Fixed mode (2..32)
    std::uint64_t drift_budget_ulp = 256;  ///< budget for Drift mode

    [[nodiscard]] bool compressed() const {
        return mode != CheckpointCompress::Off;
    }
};

/// Parse a `--checkpoint-compress` spec: "off", "drift", or an integer
/// rate in [2,32]. `drift_budget_ulp` seeds Drift mode (callers pass the
/// governor's --drift-budget so both layers share one noise floor).
[[nodiscard]] inline CheckpointOptions parse_checkpoint_compress(
    const std::string& spec, std::uint64_t drift_budget_ulp = 256) {
    CheckpointOptions opt;
    opt.drift_budget_ulp = drift_budget_ulp;
    if (spec == "off") {
        opt.mode = CheckpointCompress::Off;
    } else if (spec == "drift") {
        opt.mode = CheckpointCompress::Drift;
    } else {
        std::size_t pos = 0;
        int bits = 0;
        try {
            bits = std::stoi(spec, &pos);
        } catch (const std::exception&) {
            pos = 0;
        }
        if (pos != spec.size() || bits < 2 || bits > 32)
            throw std::invalid_argument(
                "--checkpoint-compress expects off|drift|<bits in [2,32]>, "
                "got '" +
                spec + "'");
        opt.mode = CheckpointCompress::Fixed;
        opt.bits = bits;
    }
    return opt;
}

/// Rate for one array under Drift mode: the smallest rate whose
/// error_bound at the array's peak magnitude does not exceed
/// `budget_ulp` ULPs of the storage type (`storage_digits` significand
/// bits: 11 for half, 24 for float, 53 for double). Saturates at 32 bits
/// — for double storage even the maximum rate sits above a tight budget's
/// floor, which still halves the payload versus raw binary64.
[[nodiscard]] inline int drift_bits(double peak, std::uint64_t budget_ulp,
                                    int storage_digits) {
    if (!(peak > 0.0)) return 2;  // all-zero array: every rate is exact
    const double ulp =
        std::ldexp(1.0, std::ilogb(peak) + 1 - storage_digits);
    const double tol = static_cast<double>(budget_ulp) * ulp;
    return compress::bits_for_tolerance(peak, tol);
}

/// Rate for one array under `opt`; 0 means "uncompressed" (Off mode).
[[nodiscard]] inline int resolve_bits(const CheckpointOptions& opt,
                                      double peak, int storage_digits) {
    switch (opt.mode) {
        case CheckpointCompress::Fixed:
            return opt.bits;
        case CheckpointCompress::Drift:
            return drift_bits(peak, opt.drift_budget_ulp, storage_digits);
        case CheckpointCompress::Off:
            break;
    }
    return 0;
}

/// Significand bits of a storage type (11 for half, 24 float, 53 double)
/// — the `storage_digits` drift_bits derives the ULP size from.
template <typename T>
struct StorageDigitsT {
    static constexpr int value = std::numeric_limits<T>::digits;
};
template <>
struct StorageDigitsT<fp::Half> {
    static constexpr int value = fp::Half::mantissa_digits;
};
template <typename T>
inline constexpr int storage_digits_v = StorageDigitsT<T>::value;

/// Widen raw storage-precision bytes (elem = 2 half, 4 float, 8 double)
/// to the doubles the fixed-rate compressor consumes — the same widening
/// the checkpoint readers apply.
inline void widen_storage(const std::vector<std::uint8_t>& raw,
                          std::uint32_t elem, std::vector<double>& out) {
    const std::size_t n = raw.size() / elem;
    out.resize(n);
    if (elem == 2) {
        for (std::size_t k = 0; k < n; ++k) {
            std::uint16_t b = 0;
            std::memcpy(&b, raw.data() + 2 * k, 2);
            out[k] = static_cast<double>(fp::Half::from_bits(b));
        }
    } else if (elem == 4) {
        for (std::size_t k = 0; k < n; ++k) {
            float f = 0.0f;
            std::memcpy(&f, raw.data() + 4 * k, 4);
            out[k] = static_cast<double>(f);
        }
    } else {
        std::memcpy(out.data(), raw.data(), n * sizeof(double));
    }
}

[[nodiscard]] inline double peak_abs(std::span<const double> xs) {
    double peak = 0.0;
    for (double v : xs) peak = std::max(peak, std::fabs(v));
    return peak;
}

/// A full disk or closed pipe silently truncates the file otherwise — the
/// failure must surface at write time, not at restart time.
inline void require_write(std::ostream& os) {
    if (!os) throw std::runtime_error("checkpoint: write failed");
}

namespace detail {
template <typename T>
void write_pod(std::ostream& os, const T& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
T read_pod(std::istream& is) {
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!is) throw std::runtime_error("checkpoint: truncated stream");
    return v;
}
}  // namespace detail

/// Read one v1 array record: `count` raw storage-precision values of
/// `elem` bytes each (2, 4 or 8), widened to double by widen_storage.
/// Callers bound `count` by the header checks first.
[[nodiscard]] inline std::vector<double> read_raw_array(
    std::istream& is, std::uint64_t count, std::uint32_t elem) {
    std::vector<std::uint8_t> raw(count * elem);
    is.read(reinterpret_cast<char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
    if (!is) throw std::runtime_error("checkpoint: truncated arrays");
    std::vector<double> out;
    widen_storage(raw, elem, out);
    return out;
}

/// Serialize one v2 array record: [u32 rate][u64 payload bytes][payload].
/// Returns the bytes emitted (12 + payload).
inline std::uint64_t write_compressed_array(std::ostream& os,
                                            std::span<const double> values,
                                            int bits) {
    const auto ca = compress::compress_fixed_rate(values, bits);
    detail::write_pod(os, static_cast<std::uint32_t>(bits));
    detail::write_pod(os, static_cast<std::uint64_t>(ca.data.size()));
    os.write(reinterpret_cast<const char*>(ca.data.data()),
             static_cast<std::streamsize>(ca.data.size()));
    require_write(os);
    return 12 + ca.data.size();
}

/// Read one v2 array record of `count` values. The rate and payload size
/// are validated against the analytic size formula before the payload
/// buffer is allocated, and decompress re-validates the whole stream plus
/// every block exponent — corruption surfaces as std::runtime_error.
[[nodiscard]] inline std::vector<double> read_compressed_array(
    std::istream& is, std::uint64_t count) {
    const auto bits = detail::read_pod<std::uint32_t>(is);
    if (bits < 2 || bits > 32)
        throw std::runtime_error("checkpoint: bad compression rate");
    const auto nbytes = detail::read_pod<std::uint64_t>(is);
    if (nbytes !=
        compress::compressed_payload_bytes(count, static_cast<int>(bits)))
        throw std::runtime_error(
            "checkpoint: compressed payload size inconsistent with "
            "element count and rate");
    compress::CompressedArray ca;
    ca.bits = static_cast<int>(bits);
    ca.count = count;
    ca.data.resize(nbytes);
    is.read(reinterpret_cast<char*>(ca.data.data()),
            static_cast<std::streamsize>(nbytes));
    if (!is) throw std::runtime_error("checkpoint: truncated arrays");
    try {
        return compress::decompress(ca);
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("checkpoint: ") + e.what());
    }
}

/// What one checkpoint write actually produced — fed into the
/// {"type":"checkpoint"} metrics record and the cost-model benches.
struct CheckpointWriteInfo {
    std::uint32_t version = 1;
    std::uint64_t raw_bytes = 0;      ///< v1 (uncompressed) stream size
    std::uint64_t written_bytes = 0;  ///< bytes actually emitted
    std::vector<int> bits;            ///< per-array rates (empty for v1)
};

/// Build the {"type":"checkpoint"} JSONL metrics record.
[[nodiscard]] inline std::string checkpoint_record(
    const std::string& path, std::int64_t step,
    const CheckpointWriteInfo& info, double snapshot_s, double write_s,
    double stall_s, bool async) {
    std::string bits = "[";
    for (std::size_t i = 0; i < info.bits.size(); ++i) {
        if (i != 0) bits += ',';
        bits += std::to_string(info.bits[i]);
    }
    bits += ']';
    const double ratio =
        info.written_bytes == 0
            ? 1.0
            : static_cast<double>(info.raw_bytes) /
                  static_cast<double>(info.written_bytes);
    return obs::json::Object()
        .field("type", "checkpoint")
        .field("path", path)
        .field("step", step)
        .field("version", static_cast<std::uint64_t>(info.version))
        .field("raw_bytes", info.raw_bytes)
        .field("written_bytes", info.written_bytes)
        .field("ratio", ratio)
        .field_raw("bits", bits)
        .field("snapshot_s", snapshot_s)
        .field("write_s", write_s)
        .field("stall_s", stall_s)
        .field("async", async)
        .str();
}

}  // namespace tp::io
