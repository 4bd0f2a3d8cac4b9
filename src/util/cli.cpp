#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/threads.hpp"

namespace tp::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

namespace {

/// Strict whole-string integer parse; nullopt on junk, trailing
/// characters, or out-of-range values (`1e99`, `99999999999999`).
std::optional<int> parse_int(const std::string& v) {
    try {
        std::size_t used = 0;
        const int n = std::stoi(v, &used);
        if (used != v.size()) return std::nullopt;
        return n;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

std::optional<double> parse_double(const std::string& v) {
    try {
        std::size_t used = 0;
        const double x = std::stod(v, &used);
        if (used != v.size()) return std::nullopt;
        return x;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

}  // namespace

void ArgParser::add_flag(const std::string& name, const std::string& help) {
    specs_.emplace_back(name, Spec{help, "false", Kind::Flag});
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
    specs_.emplace_back(name, Spec{help, default_value, Kind::String});
}

void ArgParser::add_int_option(const std::string& name,
                               const std::string& help,
                               const std::string& default_value) {
    specs_.emplace_back(name, Spec{help, default_value, Kind::Int});
}

void ArgParser::add_double_option(const std::string& name,
                                  const std::string& help,
                                  const std::string& default_value) {
    specs_.emplace_back(name, Spec{help, default_value, Kind::Double});
}

const ArgParser::Spec* ArgParser::find(const std::string& name) const {
    for (const auto& [n, spec] : specs_)
        if (n == name) return &spec;
    return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
    values_.clear();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << help();
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            std::cerr << program_ << ": unexpected argument '" << arg << "'\n"
                      << help();
            return false;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        const Spec* spec = find(name);
        if (spec == nullptr) {
            std::cerr << program_ << ": unknown option '--" << name << "'\n"
                      << help();
            return false;
        }
        if (spec->is_flag()) {
            values_[name] = has_value ? value : "true";
        } else if (has_value) {
            values_[name] = value;
        } else if (i + 1 < argc) {
            values_[name] = argv[++i];
        } else {
            std::cerr << program_ << ": option '--" << name
                      << "' requires a value\n";
            return false;
        }
    }
    // Eager validation of typed options (provided values AND registered
    // defaults, so a bad default is caught in development rather than at
    // first get_int). Reporting here — with the flag and the value —
    // replaces an unhelpful std::terminate from an escaped
    // std::invalid_argument deep in the driver.
    for (const auto& [name, spec] : specs_) {
        if (spec.kind != Kind::Int && spec.kind != Kind::Double) continue;
        const auto it = values_.find(name);
        const std::string& v =
            it != values_.end() ? it->second : spec.default_value;
        const bool ok = spec.kind == Kind::Int
                            ? parse_int(v).has_value()
                            : parse_double(v).has_value();
        if (!ok) {
            std::cerr << program_ << ": option '--" << name << "': expected "
                      << (spec.kind == Kind::Int ? "an integer"
                                                 : "a number")
                      << " in range, got '" << v << "'\n";
            return false;
        }
    }
    return true;
}

bool ArgParser::get_flag(const std::string& name) const {
    const std::string v = get_string(name);
    return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string ArgParser::get_string(const std::string& name) const {
    if (const auto it = values_.find(name); it != values_.end())
        return it->second;
    const Spec* spec = find(name);
    if (spec == nullptr)
        throw std::invalid_argument("unregistered option: " + name);
    return spec->default_value;
}

int ArgParser::get_int(const std::string& name) const {
    const std::string v = get_string(name);
    // Options registered via add_int_option were validated by parse();
    // this throw is the backstop for string-registered options only.
    if (const auto n = parse_int(v)) return *n;
    throw std::invalid_argument("option --" + name +
                                ": expected an integer, got '" + v + "'");
}

double ArgParser::get_double(const std::string& name) const {
    const std::string v = get_string(name);
    if (const auto x = parse_double(v)) return *x;
    throw std::invalid_argument("option --" + name +
                                ": expected a number, got '" + v + "'");
}

std::string ArgParser::help() const {
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\nOptions:\n";
    for (const auto& [name, spec] : specs_) {
        os << "  --" << name;
        if (!spec.is_flag()) os << " <value>";
        os << "\n      " << spec.help;
        if (!spec.is_flag())
            os << " (default: " << spec.default_value << ")";
        os << "\n";
    }
    os << "  --help\n      Show this message\n";
    return os.str();
}

void add_threads_option(ArgParser& args) {
    args.add_int_option("threads",
                    "OpenMP threads for the solver hot paths "
                    "(0 = runtime default; results are identical at any "
                    "count)",
                    "0");
}

int apply_threads_option(const ArgParser& args) {
    const int n = args.get_int("threads");
    if (n > 0) set_threads(n);
    return max_threads();
}

void add_simd_option(ArgParser& args) {
    args.add_option("simd",
                    "Flux-sweep instruction shape: auto|scalar|native "
                    "(bit-identical results; auto picks native when the "
                    "build has a vector unit)",
                    "auto");
}

simd::Mode apply_simd_option(const ArgParser& args) {
    return simd::parse_mode(args.get_string("simd"));
}

void add_checkpoint_options(ArgParser& args) {
    args.add_option("checkpoint",
                    "Checkpoint path prefix; empty disables checkpoint "
                    "writes",
                    "");
    args.add_int_option("checkpoint-interval",
                        "Steps between checkpoints (0 = final state only)",
                        "0");
    args.add_option("checkpoint-compress",
                    "Checkpoint payload encoding: off|drift|<bits in "
                    "[2,32]>. off writes raw storage arrays (format v1); "
                    "drift derives each array's fixed rate from the "
                    "--drift-budget ULP ceiling; an explicit rate applies "
                    "to every array (both v2, error-bounded)",
                    "off");
    args.add_flag("checkpoint-async",
                  "Write checkpoints on a background thread (the solver "
                  "stalls only for the in-memory snapshot copy; bytes are "
                  "identical to the synchronous path)");
    args.add_option("restart",
                    "Resume from this checkpoint path before stepping; "
                    "empty starts from the initial condition",
                    "");
}

io::CheckpointOptions apply_checkpoint_options(
    const ArgParser& args, std::uint64_t drift_budget_ulp) {
    return io::parse_checkpoint_compress(
        args.get_string("checkpoint-compress"), drift_budget_ulp);
}

void add_governor_options(ArgParser& args) {
    args.add_option("governor",
                    "Closed-loop runtime precision governor: off|on. When "
                    "on, governed kernels run reduced (float) while the "
                    "shadow-divergence monitor stays under budget and are "
                    "promoted to double when it crosses (off runs are "
                    "bit-identical to builds without the governor)",
                    "off");
    args.add_int_option("drift-budget",
                        "Governor budget: max per-step ULP drift on the "
                        "float lattice before a kernel is promoted",
                        "256");
    args.add_double_option(
        "governor-tail-frac",
        "Governor budget: max fraction of monitored samples whose "
        "relative error reaches the tail decade",
        "0.01");
    args.add_int_option(
        "governor-tail-exp",
        "First relative-error decade (power of ten) counted as tail",
        "-6");
    args.add_int_option(
        "governor-hysteresis",
        "Clean promoted steps required before a trial re-demotion", "8");
    args.add_int_option(
        "governor-warmup",
        "Telemetry steps collected before the first governor decision",
        "2");
}

fp::GovernorConfig apply_governor_options(const ArgParser& args) {
    fp::GovernorConfig cfg;
    const std::string mode = args.get_string("governor");
    if (mode == "on") {
        cfg.enabled = true;
    } else if (mode != "off") {
        throw std::invalid_argument("--governor: expected off|on, got '" +
                                    mode + "'");
    }
    const int budget = args.get_int("drift-budget");
    cfg.drift_budget_ulp =
        budget < 0 ? 0 : static_cast<std::uint64_t>(budget);
    cfg.tail_budget_frac = args.get_double("governor-tail-frac");
    cfg.tail_exp = args.get_int("governor-tail-exp");
    cfg.hysteresis = args.get_int("governor-hysteresis");
    cfg.warmup = args.get_int("governor-warmup");
    return cfg;
}

}  // namespace tp::util
