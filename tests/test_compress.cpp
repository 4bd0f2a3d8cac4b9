#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/fixedrate.hpp"
#include "util/rng.hpp"

namespace tc = tp::compress;

// --------------------------------------------------------------- bitstream
TEST(BitStream, RoundTripsMixedWidths) {
    std::vector<std::uint8_t> buf;
    tc::BitWriter w(buf);
    w.write(0b101, 3);
    w.write(0xDEADBEEFull, 32);
    w.write(1, 1);
    w.write(0x123456789ABCDEFull, 57);
    tc::BitReader r(buf);
    EXPECT_EQ(r.read(3), 0b101u);
    EXPECT_EQ(r.read(32), 0xDEADBEEFull);
    EXPECT_EQ(r.read(1), 1u);
    EXPECT_EQ(r.read(57), 0x123456789ABCDEFull);
}

TEST(BitStream, MasksHighBits) {
    std::vector<std::uint8_t> buf;
    tc::BitWriter w(buf);
    w.write(0xFFFF, 4);  // only low 4 bits stored
    w.write(0, 4);
    tc::BitReader r(buf);
    EXPECT_EQ(r.read(4), 0xFu);
    EXPECT_EQ(r.read(4), 0u);
}

TEST(BitStream, ReaderThrowsPastEnd) {
    std::vector<std::uint8_t> buf{0xAB};
    tc::BitReader r(buf);
    (void)r.read(8);
    EXPECT_THROW((void)r.read(1), std::out_of_range);
}

TEST(BitStream, RejectsBadWidths) {
    std::vector<std::uint8_t> buf;
    tc::BitWriter w(buf);
    EXPECT_THROW(w.write(0, 0), std::invalid_argument);
    EXPECT_THROW(w.write(0, 65), std::invalid_argument);
    tc::BitReader r(buf);
    EXPECT_THROW((void)r.read(0), std::invalid_argument);
}

TEST(BitStream, RandomRoundTrip) {
    tp::util::Rng rng(9);
    std::vector<std::uint8_t> buf;
    tc::BitWriter w(buf);
    std::vector<std::pair<std::uint64_t, int>> fields;
    for (int i = 0; i < 2000; ++i) {
        const int bits = 1 + static_cast<int>(rng.next_below(64));
        std::uint64_t v = rng.next_u64();
        if (bits < 64) v &= (std::uint64_t{1} << bits) - 1;
        fields.emplace_back(v, bits);
        w.write(v, bits);
    }
    tc::BitReader r(buf);
    for (const auto& [v, bits] : fields) EXPECT_EQ(r.read(bits), v);
}

// --------------------------------------------------------------- fixedrate
namespace {
std::vector<double> field_like_data(std::size_t n, std::uint64_t seed) {
    tp::util::Rng rng(seed);
    std::vector<double> xs(n);
    // Smooth-ish field with block-to-block dynamic range.
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 10.0 + 70.0 * std::sin(0.01 * static_cast<double>(i)) +
                rng.uniform(-0.5, 0.5);
    return xs;
}
}  // namespace

class FixedRate : public ::testing::TestWithParam<int> {};

TEST_P(FixedRate, ErrorWithinAnalyticBound) {
    const int bits = GetParam();
    const auto xs = field_like_data(1000, 3);
    const auto c = tc::compress_fixed_rate(xs, bits);
    const auto back = tc::decompress(c);
    ASSERT_EQ(back.size(), xs.size());
    for (std::size_t start = 0; start < xs.size();
         start += tc::kBlockSize) {
        const std::size_t n =
            std::min(tc::kBlockSize, xs.size() - start);
        double peak = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            peak = std::max(peak, std::fabs(xs[start + i]));
        const double bound = tc::error_bound(peak, bits);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_LE(std::fabs(back[start + i] - xs[start + i]),
                      bound * 1.0000001)
                << "bits=" << bits << " i=" << start + i;
    }
}

TEST_P(FixedRate, RatioMatchesRate) {
    const int bits = GetParam();
    const auto xs = field_like_data(64 * 100, 5);
    const auto c = tc::compress_fixed_rate(xs, bits);
    // 64 bits/value raw vs (bits + 11/64) compressed.
    const double expected = 64.0 / (bits + 11.0 / 64.0);
    EXPECT_NEAR(tc::compression_ratio(c), expected, expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, FixedRate,
                         ::testing::Values(4, 8, 12, 16, 24, 32));

TEST(FixedRateEdge, AllZerosCompressToZeros) {
    const std::vector<double> xs(200, 0.0);
    const auto back = tc::decompress(tc::compress_fixed_rate(xs, 8));
    for (const double v : back) EXPECT_EQ(v, 0.0);
}

TEST(FixedRateEdge, EmptyInput) {
    const std::vector<double> xs;
    const auto c = tc::compress_fixed_rate(xs, 8);
    EXPECT_EQ(c.count, 0u);
    EXPECT_TRUE(tc::decompress(c).empty());
}

TEST(FixedRateEdge, PartialFinalBlock) {
    auto xs = field_like_data(70, 7);  // 64 + 6
    const auto back = tc::decompress(tc::compress_fixed_rate(xs, 16));
    ASSERT_EQ(back.size(), 70u);
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(back[i], xs[i], 0.01);
}

TEST(FixedRateEdge, RejectsNonFinite) {
    std::vector<double> xs{1.0, std::numeric_limits<double>::infinity()};
    EXPECT_THROW((void)tc::compress_fixed_rate(xs, 8),
                 std::invalid_argument);
    xs[1] = std::nan("");
    EXPECT_THROW((void)tc::compress_fixed_rate(xs, 8),
                 std::invalid_argument);
}

TEST(FixedRateEdge, RejectsBadRates) {
    const std::vector<double> xs{1.0};
    EXPECT_THROW((void)tc::compress_fixed_rate(xs, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)tc::compress_fixed_rate(xs, 33),
                 std::invalid_argument);
}

TEST(FixedRateEdge, NegativeValuesRoundTrip) {
    std::vector<double> xs;
    for (int i = 0; i < 128; ++i) xs.push_back(i % 2 == 0 ? -5.25 : 5.25);
    const auto back = tc::decompress(tc::compress_fixed_rate(xs, 16));
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(back[i], xs[i], 1e-3);
}

// The two correctness contracts the quantizer must honour exactly (no
// fudge factor): the advertised bound holds even for values sitting at
// the block peak (the peak must land on a representable code), and deep
// subnormal blocks clamp to the smallest normal binade instead of
// wrapping the 11-bit stored exponent into the all-zero sentinel or a
// huge bogus binade.
TEST(FixedRateEdge, BoundHoldsExactlyAtPeak) {
    for (const int bits : {4, 8, 12, 16}) {
        std::vector<double> xs(96);
        for (std::size_t i = 0; i < xs.size(); ++i)
            xs[i] = (i % 2 == 0 ? 3.7 : -3.7);  // every value at +/-peak
        const auto back = tc::decompress(tc::compress_fixed_rate(xs, bits));
        const double bound = tc::error_bound(3.7, bits);
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_LE(std::fabs(back[i] - xs[i]), bound)
                << "bits=" << bits << " i=" << i;
    }
}

TEST(FixedRateEdge, SubnormalBlocksRoundTripWithinBound) {
    // Peaks far below 2^-1022: the stored exponent clamps to -1022 and
    // the bound is evaluated against the clamped binade.
    std::vector<double> xs(130);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = std::ldexp((i % 2 == 0 ? 1.0 : -1.0) *
                               (0.25 + 0.005 * static_cast<double>(i)),
                           -1060);
    for (const int bits : {4, 8, 16}) {
        const auto back = tc::decompress(tc::compress_fixed_rate(xs, bits));
        ASSERT_EQ(back.size(), xs.size());
        const double bound =
            tc::error_bound(std::ldexp(1.0, -1022), bits);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            EXPECT_TRUE(std::isfinite(back[i])) << "i=" << i;
            EXPECT_LE(std::fabs(back[i] - xs[i]), bound)
                << "bits=" << bits << " i=" << i;
        }
    }
}

TEST(FixedRateProperty, RandomBlocksRespectAdvertisedBound) {
    // Property sweep: ragged counts, per-block magnitudes spanning the
    // whole exponent range (deep subnormal through ~2^900), interleaved
    // all-zero blocks, exact +/-peak values. Every reconstruction error
    // must respect error_bound(block peak, bits) with no slack factor.
    tp::util::Rng rng(41);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 1 + rng.next_below(5 * tc::kBlockSize);
        std::vector<double> xs(n);
        for (std::size_t start = 0; start < n; start += tc::kBlockSize) {
            const std::size_t len = std::min(tc::kBlockSize, n - start);
            const std::uint64_t kind = rng.next_below(4);
            if (kind == 0) continue;  // all-zero block (sentinel path)
            const int e = -1070 + static_cast<int>(rng.next_below(1970));
            const double scale = std::ldexp(1.0, e);
            if (scale == 0.0 || !std::isfinite(scale)) continue;
            for (std::size_t i = 0; i < len; ++i)
                xs[start + i] = rng.uniform(-1.0, 1.0) * scale;
            if (kind == 1) {
                // Pin two entries to exactly +/-peak magnitude.
                xs[start] = scale;
                if (len > 1) xs[start + 1] = -scale;
            }
        }
        const int bits = 4 * (1 + static_cast<int>(rng.next_below(4)));
        const auto c = tc::compress_fixed_rate(xs, bits);
        const auto back = tc::decompress(c);
        ASSERT_EQ(back.size(), xs.size());
        for (std::size_t start = 0; start < n; start += tc::kBlockSize) {
            const std::size_t len = std::min(tc::kBlockSize, n - start);
            double peak = 0.0;
            for (std::size_t i = 0; i < len; ++i)
                peak = std::max(peak, std::fabs(xs[start + i]));
            // The stored exponent clamps subnormal peaks up to the
            // smallest normal binade; the bound follows the clamp.
            const double bound = tc::error_bound(
                std::max(peak, std::ldexp(1.0, -1022)), bits);
            for (std::size_t i = 0; i < len; ++i)
                EXPECT_LE(std::fabs(back[start + i] - xs[start + i]),
                          peak == 0.0 ? 0.0 : bound)
                    << "trial=" << trial << " bits=" << bits
                    << " i=" << start + i;
        }
    }
}

TEST(FixedRateEdge, HigherRateNeverWorse) {
    const auto xs = field_like_data(640, 11);
    double prev = 1e300;
    for (const int bits : {4, 8, 16, 24}) {
        const auto back = tc::decompress(tc::compress_fixed_rate(xs, bits));
        double linf = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i)
            linf = std::max(linf, std::fabs(back[i] - xs[i]));
        EXPECT_LE(linf, prev);
        prev = linf;
    }
    EXPECT_LT(prev, 1e-4);  // 24-bit rate is tight for this field
}

// ------------------------------------------------- stream validation
// decompress() is fed bytes that may come from a corrupt or truncated
// checkpoint; every header field must be validated before it sizes an
// allocation or drives a shift width.

TEST(DecompressValidation, RejectsBitsOutsideRange) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    for (const int bad : {0, 1, 33, -5, 64}) {
        auto c = tc::compress_fixed_rate(xs, 8);
        c.bits = bad;
        EXPECT_THROW((void)tc::decompress(c), std::invalid_argument)
            << "bits=" << bad;
    }
}

TEST(DecompressValidation, RejectsHugeCount) {
    // A corrupt count would otherwise size a multi-gigabyte allocation
    // before any payload consistency check could catch it.
    tc::CompressedArray c;
    c.bits = 8;
    c.count = std::uint64_t{1} << 62;
    c.data.assign(16, 0);
    EXPECT_THROW((void)tc::decompress(c), std::invalid_argument);
}

TEST(DecompressValidation, RejectsPayloadSizeMismatch) {
    const auto xs = field_like_data(100, 13);
    for (const int delta : {-1, +1, +64}) {
        auto c = tc::compress_fixed_rate(xs, 12);
        c.data.resize(c.data.size() + delta);
        EXPECT_THROW((void)tc::decompress(c), std::invalid_argument)
            << "delta=" << delta;
    }
    // Count inconsistent with an intact payload is equally rejected.
    auto c = tc::compress_fixed_rate(xs, 12);
    c.count += 1;
    EXPECT_THROW((void)tc::decompress(c), std::invalid_argument);
}

TEST(DecompressValidation, PayloadSizeFormulaMatchesEncoder) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{1000}}) {
        const auto xs = field_like_data(n, 17);
        for (const int bits : {2, 7, 16, 32}) {
            const auto c = tc::compress_fixed_rate(xs, bits);
            EXPECT_EQ(c.data.size(),
                      tc::compressed_payload_bytes(c.count, bits))
                << "n=" << n << " bits=" << bits;
        }
    }
}

TEST(DecompressValidation, RejectsCorruptBlockExponent) {
    // stored_e = 2047 is outside the emittable range [1, 2046]: the
    // encoder rejects magnitudes at or above 2^1023, so the peak legal
    // stored exponent is kMaxExp + bias = 2046. 2047 would reconstruct
    // the peak code as +/-inf. The exponent is the first 11 bits of the
    // block; the bitstream packs LSB-first.
    const auto xs = field_like_data(64, 19);
    auto c = tc::compress_fixed_rate(xs, 8);
    c.data[0] = 0xFF;
    c.data[1] |= 0x07;  // force the leading 11 bits to all ones
    EXPECT_THROW((void)tc::decompress(c), std::invalid_argument);
}

TEST(FixedRateEdge, RejectsTopBinadeMagnitudes) {
    // |v| >= 2^1023 would give the block a stored exponent of 2047 and
    // reconstruct peak codes as infinity; the encoder refuses up front.
    const std::vector<double> xs{0x1p1023};
    EXPECT_THROW((void)tc::compress_fixed_rate(xs, 8),
                 std::invalid_argument);
    const std::vector<double> ok{0x1.fffffffffffffp1022};
    EXPECT_NO_THROW((void)tc::compress_fixed_rate(ok, 8));
}

// --------------------------------------------------- rate-for-tolerance
TEST(BitsForTolerance, SmallestRateMeetingTheBound) {
    const double peak = 3.7e2;
    for (const double tol : {1e-1, 1e-3, 1e-6, 1e-9}) {
        const int bits = tc::bits_for_tolerance(peak, tol);
        ASSERT_GE(bits, 2);
        ASSERT_LE(bits, 32);
        if (bits < 32) {
            EXPECT_LE(tc::error_bound(peak, bits), tol);
        }
        if (bits > 2) {
            EXPECT_GT(tc::error_bound(peak, bits - 1), tol);
        }
    }
}

TEST(BitsForTolerance, SaturatesAndHandlesZeroPeak) {
    EXPECT_EQ(tc::bits_for_tolerance(1.0, 0.0), 32);  // unmeetable
    EXPECT_EQ(tc::bits_for_tolerance(0.0, 1e-6), 2);  // all-zero array
    EXPECT_EQ(tc::bits_for_tolerance(1.0, 10.0), 2);  // loose budget
}
