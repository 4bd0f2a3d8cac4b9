// cost_planner: interactive version of the paper's Section VI cost
// analysis. Give it your application's runtime and output size and it
// prints the monthly AWS-style bill for each precision mode, plus the
// projected energy bill across the paper's architectures.
//
//   $ ./cost_planner --runtime-full 31.3 --runtime-min 26.3
//         --runtime-mixed 29.9 --size-full-gb 0.128
//
// (one command, wrapped without a trailing backslash: -Werror=comment
// rejects one at the end of a line comment).

#include <cstdio>

#include "costmodel/aws.hpp"
#include "hw/archspec.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace tp;

int main(int argc, char** argv) {
    util::ArgParser args(
        "cost_planner",
        "monthly cloud-cost and energy planning across precision modes");
    args.add_option("runtime-full", "full-precision runtime (seconds)",
                    "31.3");
    args.add_option("runtime-mixed", "mixed-precision runtime (seconds)",
                    "29.9");
    args.add_option("runtime-min", "minimum-precision runtime (seconds)",
                    "26.3");
    args.add_option("size-full-gb", "full-precision output size (GB)",
                    "0.128");
    args.add_option("ec2-rate", "EC2 $/hour", "1.591");
    args.add_option("s3-rate", "S3 $/GB-month", "0.023");
    if (!args.parse(argc, argv)) return 1;

    costmodel::AwsRates rates;
    rates.ec2_per_hour = args.get_double("ec2-rate");
    rates.s3_standard_gb_month = args.get_double("s3-rate");

    const double size_full = args.get_double("size-full-gb");
    // Reduced-precision outputs carry float state over the same metadata:
    // the CLAMR layout makes them 2/3 the size (Table III).
    const double size_reduced = size_full * 2.0 / 3.0;

    struct Mode {
        const char* name;
        double runtime;
        double size;
    };
    const Mode modes[] = {
        {"minimum", args.get_double("runtime-min"), size_reduced},
        {"mixed", args.get_double("runtime-mixed"), size_reduced},
        {"full", args.get_double("runtime-full"), size_full},
    };

    util::TextTable cost("Monthly cost by precision mode");
    cost.set_header({"mode", "compute", "storage", "total", "saving"});
    costmodel::CostBreakdown full_cost;
    for (const Mode& m : modes) {
        const auto c = costmodel::estimate_monthly_cost(
            rates, costmodel::clamr_scenario(m.runtime, m.size));
        if (std::string(m.name) == "full") full_cost = c;
    }
    for (const Mode& m : modes) {
        const auto c = costmodel::estimate_monthly_cost(
            rates, costmodel::clamr_scenario(m.runtime, m.size));
        cost.add_row({m.name, util::money(c.compute_dollars),
                      util::money(c.storage_dollars),
                      util::money(c.total()),
                      util::fixed(100.0 * costmodel::savings_fraction(
                                      full_cost, c),
                                  1) +
                          "%"});
    }
    std::printf("%s\n", cost.str().c_str());

    util::TextTable energy(
        "Energy per run by architecture (nominal TDP x runtime)");
    energy.set_header({"architecture", "min (J)", "mixed (J)", "full (J)"});
    for (const auto& arch : hw::paper_architectures()) {
        energy.add_row({arch.name,
                        util::fixed(arch.tdp_watts * modes[0].runtime, 0),
                        util::fixed(arch.tdp_watts * modes[1].runtime, 0),
                        util::fixed(arch.tdp_watts * modes[2].runtime, 0)});
    }
    std::printf("%s", energy.str().c_str());
    std::printf(
        "\nNote: the energy table assumes the given runtimes transfer\n"
        "across architectures; use the bench harnesses for per-arch\n"
        "roofline-projected runtimes instead.\n");
    return 0;
}
