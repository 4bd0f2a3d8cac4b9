#pragma once
// Minimal command-line option parser for the examples and bench harnesses.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` options,
// with typed accessors and automatic `--help` text generation.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fp/governor.hpp"
#include "io/checkpoint.hpp"
#include "simd/dispatch.hpp"

namespace tp::util {

/// Declarative CLI option parser.
///
///   ArgParser args("dam_break", "Run the CLAMR-like dam break problem");
///   args.add_flag("verbose", "Print per-step diagnostics");
///   args.add_option("grid", "Coarse grid cells per side", "64");
///   if (!args.parse(argc, argv)) return 1;   // printed --help or an error
///   int n = args.get_int("grid");
class ArgParser {
public:
    ArgParser(std::string program, std::string description);

    /// Register a boolean flag (default false).
    void add_flag(const std::string& name, const std::string& help);

    /// Register a valued option with a default.
    void add_option(const std::string& name, const std::string& help,
                    const std::string& default_value);

    /// Register options whose values must parse as an integer / number.
    /// parse() validates these eagerly: a malformed or out-of-range value
    /// (`--threads=1e99`, `--grid=abc`) is reported on stderr with the
    /// offending flag and value and parse() returns false, instead of a
    /// std::invalid_argument escaping from the typed getter and killing
    /// the program via std::terminate.
    void add_int_option(const std::string& name, const std::string& help,
                        const std::string& default_value);
    void add_double_option(const std::string& name, const std::string& help,
                           const std::string& default_value);

    /// Parse argv. Returns false if --help was requested or an unknown or
    /// malformed option was seen (an error message goes to stderr).
    [[nodiscard]] bool parse(int argc, const char* const* argv);

    [[nodiscard]] bool get_flag(const std::string& name) const;
    [[nodiscard]] std::string get_string(const std::string& name) const;
    [[nodiscard]] int get_int(const std::string& name) const;
    [[nodiscard]] double get_double(const std::string& name) const;

    [[nodiscard]] std::string help() const;

private:
    enum class Kind { String, Int, Double, Flag };

    struct Spec {
        std::string help;
        std::string default_value;
        Kind kind = Kind::String;

        [[nodiscard]] bool is_flag() const { return kind == Kind::Flag; }
    };

    std::string program_;
    std::string description_;
    std::vector<std::pair<std::string, Spec>> specs_;  // declaration order
    std::map<std::string, std::string> values_;

    [[nodiscard]] const Spec* find(const std::string& name) const;
};

/// Register the standard `--threads` option (0 = keep the runtime default,
/// i.e. all hardware threads when OpenMP is enabled).
void add_threads_option(ArgParser& args);

/// Apply a parsed `--threads` value to the global thread team and return
/// the count now in effect. Safe to call when the option value is 0 (the
/// current setting is left untouched) or in serial builds (always 1).
int apply_threads_option(const ArgParser& args);

/// Register the standard `--simd auto|scalar|native` option selecting the
/// CLAMR flux sweep's instruction shape at runtime (results are
/// bit-identical across modes within a precision policy).
void add_simd_option(ArgParser& args);

/// Parse the `--simd` value; throws std::invalid_argument on junk.
[[nodiscard]] simd::Mode apply_simd_option(const ArgParser& args);

/// Register the standard checkpoint options: `--checkpoint <path>` (empty
/// disables), `--checkpoint-interval <steps>` (0 = final state only),
/// `--checkpoint-compress off|drift|<bits>` (format v1 vs error-bounded
/// v2, DESIGN.md §14), `--checkpoint-async` (background writer thread),
/// and `--restart <path>` to resume from a previous checkpoint.
void add_checkpoint_options(ArgParser& args);

/// Parse `--checkpoint-compress` into io::CheckpointOptions; throws
/// std::invalid_argument on a junk spec. `drift_budget_ulp` seeds Drift
/// mode — callers pass the governor config's budget so the compressor
/// and the governor share one ULP noise floor.
[[nodiscard]] io::CheckpointOptions apply_checkpoint_options(
    const ArgParser& args, std::uint64_t drift_budget_ulp = 256);

/// Register the runtime precision-governor options: the master
/// `--governor off|on` switch, the `--drift-budget` ULP ceiling, and the
/// tail/hysteresis/warmup tuning knobs (fp/governor.hpp).
void add_governor_options(ArgParser& args);

/// Parse the governor options into a config; throws std::invalid_argument
/// on a junk `--governor` value. `enabled` is false unless
/// `--governor=on` was passed, in which case the caller constructs a
/// fp::PrecisionGovernor and attaches it to the solver.
[[nodiscard]] fp::GovernorConfig apply_governor_options(
    const ArgParser& args);

}  // namespace tp::util
