#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace tu = tp::util;

TEST(Timing, WallTimerMonotonic) {
    tu::WallTimer t;
    const double a = t.elapsed_seconds();
    const double b = t.elapsed_seconds();
    EXPECT_GE(b, a);
    EXPECT_GE(a, 0.0);
}

TEST(Timing, RestartResetsOrigin) {
    tu::WallTimer t;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    t.restart();
    EXPECT_LT(t.elapsed_seconds(), 1.0);
}

TEST(Timing, StopwatchAccumulates) {
    tu::StopwatchRegistry reg;
    reg.add("k", 1.5);
    reg.add("k", 0.5);
    reg.add("other", 0.25);
    EXPECT_DOUBLE_EQ(reg.total("k"), 2.0);
    EXPECT_EQ(reg.calls("k"), 2u);
    EXPECT_DOUBLE_EQ(reg.total("other"), 0.25);
    EXPECT_DOUBLE_EQ(reg.total("missing"), 0.0);
    EXPECT_EQ(reg.calls("missing"), 0u);
}

TEST(Format, Fixed) {
    EXPECT_EQ(tu::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(tu::fixed(-1.0, 0), "-1");
    EXPECT_EQ(tu::fixed(0.999, 1), "1.0");
}

TEST(Format, Scientific) {
    EXPECT_EQ(tu::scientific(1.234e-6, 2), "1.23e-06");
}

TEST(Format, HumanBytes) {
    EXPECT_EQ(tu::human_bytes(512), "512 B");
    EXPECT_EQ(tu::human_bytes(1024), "1.00 KiB");
    EXPECT_EQ(tu::human_bytes(86u * 1024 * 1024), "86.00 MiB");
    EXPECT_EQ(tu::human_bytes(1ull << 30), "1.00 GiB");
}

TEST(Format, SpeedupPercent) {
    // The paper's convention: 1.19x speedup prints as "19%", 4.53x as "453%".
    EXPECT_EQ(tu::speedup_percent(1.19), "19%");
    EXPECT_EQ(tu::speedup_percent(4.53), "353%");
    EXPECT_EQ(tu::speedup_percent(1.0), "0%");
}

TEST(Format, Money) {
    EXPECT_EQ(tu::money(223.22), "$223.22");
    EXPECT_EQ(tu::money(1950.534), "$1,950.53");
    EXPECT_EQ(tu::money(1234567.0), "$1,234,567.00");
    EXPECT_EQ(tu::money(-5.5), "-$5.50");
}

TEST(Table, RendersAlignedColumns) {
    tu::TextTable t("Title");
    t.set_header({"Arch", "Min", "Full"});
    t.add_row({"Haswell", "26.3", "31.3"});
    t.add_row({"TITAN X", "2.8", "12.7"});
    const std::string s = t.str();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("Haswell"), std::string::npos);
    // Every rendered body line has the same width.
    std::istringstream is(s);
    std::string line;
    std::getline(is, line);  // title
    std::size_t w = 0;
    while (std::getline(is, line)) {
        if (w == 0) w = line.size();
        EXPECT_EQ(line.size(), w) << "ragged table line: " << line;
    }
}

TEST(Table, PadsShortRows) {
    tu::TextTable t;
    t.set_header({"a", "b", "c"});
    t.add_row({"only-one"});
    EXPECT_NO_THROW({ const auto s = t.str(); (void)s; });
    EXPECT_EQ(t.row_count(), 1u);
}

TEST(Cli, ParsesOptionsAndFlags) {
    tu::ArgParser p("prog", "test");
    p.add_flag("verbose", "be chatty");
    p.add_option("n", "count", "7");
    p.add_option("x", "value", "1.5");
    const char* argv[] = {"prog", "--verbose", "--n", "42", "--x=2.25"};
    ASSERT_TRUE(p.parse(5, argv));
    EXPECT_TRUE(p.get_flag("verbose"));
    EXPECT_EQ(p.get_int("n"), 42);
    EXPECT_DOUBLE_EQ(p.get_double("x"), 2.25);
}

TEST(Cli, DefaultsApply) {
    tu::ArgParser p("prog", "test");
    p.add_option("n", "count", "7");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.get_int("n"), 7);
}

TEST(Cli, RejectsUnknownOption) {
    tu::ArgParser p("prog", "test");
    const char* argv[] = {"prog", "--nope", "1"};
    EXPECT_FALSE(p.parse(3, argv));
}

TEST(Cli, MissingValueFails) {
    tu::ArgParser p("prog", "test");
    p.add_option("n", "count", "7");
    const char* argv[] = {"prog", "--n"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, NonNumericValueNamesTheOption) {
    tu::ArgParser p("prog", "test");
    p.add_option("n", "count", "7");
    p.add_option("x", "value", "1.5");
    const char* argv[] = {"prog", "--n", "abc", "--x", "1.5zzz"};
    ASSERT_TRUE(p.parse(5, argv));
    // A raw std::stoi would terminate with an opaque what() of "stoi";
    // the parser wraps it into a message naming the flag and the value.
    try {
        (void)p.get_int("n");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
    }
    EXPECT_THROW((void)p.get_double("x"), std::invalid_argument);
}

TEST(Cli, TypedOptionsValidateAtParseTime) {
    // Regression: `--threads=1e99` used to sail through parse() and then
    // std::stoi's out_of_range escaped the typed getter, killing the
    // program via std::terminate. Typed registration rejects it at parse.
    tu::ArgParser p("prog", "test");
    p.add_int_option("threads", "count", "0");
    p.add_double_option("courant", "CFL", "0.2");
    {
        const char* argv[] = {"prog", "--threads=1e99"};
        EXPECT_FALSE(p.parse(2, argv));
    }
    {
        const char* argv[] = {"prog", "--threads", "abc"};
        EXPECT_FALSE(p.parse(3, argv));
    }
    {
        const char* argv[] = {"prog", "--threads", "99999999999999999999"};
        EXPECT_FALSE(p.parse(3, argv));
    }
    {
        const char* argv[] = {"prog", "--threads=4", "--courant=0.5zzz"};
        EXPECT_FALSE(p.parse(3, argv));
    }
    {
        const char* argv[] = {"prog", "--threads=4", "--courant=2.5e-1"};
        ASSERT_TRUE(p.parse(3, argv));
        EXPECT_EQ(p.get_int("threads"), 4);
        EXPECT_DOUBLE_EQ(p.get_double("courant"), 0.25);
    }
}

TEST(Cli, TypedOptionsValidateDefaultsToo) {
    // A malformed default is a programming error; catch it on the first
    // parse() during development, not at the first get_int() in a branch
    // that may rarely run.
    tu::ArgParser p("prog", "test");
    p.add_int_option("n", "count", "not-a-number");
    const char* argv[] = {"prog"};
    EXPECT_FALSE(p.parse(1, argv));
}

TEST(Csv, RoundTripsValues) {
    const std::string path = "/tmp/tp_test_csv.csv";
    {
        tu::CsvWriter w(path, {"x", "y"});
        w.write_row({1.0, 0.1});
        w.write_row({2.0, 1e-17});
        ASSERT_TRUE(w.ok());
    }
    std::ifstream in(path);
    std::string header, r1, r2;
    std::getline(in, header);
    std::getline(in, r1);
    std::getline(in, r2);
    EXPECT_EQ(header, "x,y");
    EXPECT_NE(r1.find("0.1"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(Csv, RejectsRaggedRow) {
    const std::string path = "/tmp/tp_test_csv2.csv";
    tu::CsvWriter w(path, {"a", "b"});
    EXPECT_THROW(w.write_row({1.0}), std::invalid_argument);
    std::filesystem::remove(path);
}

TEST(Rng, DeterministicForSeed) {
    tu::Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
    tu::Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, RoughlyUniformMean) {
    tu::Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += r.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}
