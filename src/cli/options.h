// Tiny declarative command-line option parser for the dscoh tools.
//
// Flags are GNU-style: --name value or --name=value; bare --name for
// booleans. Unknown options are errors; non-option arguments collect into
// positional(). No dependencies, deterministic error messages.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dscoh::cli {

class OptionParser {
public:
    explicit OptionParser(std::string programName, std::string description)
        : program_(std::move(programName)), description_(std::move(description))
    {
    }

    void addFlag(const std::string& name, const std::string& help, bool* out);
    /// A non-negative integer (decimal, 0x hex or 0 octal) no larger than
    /// @p max; a sign, trailing junk or overflow is a bad value.
    void addUint(const std::string& name, const std::string& help,
                 std::uint64_t* out, std::uint64_t max = UINT64_MAX);
    void addString(const std::string& name, const std::string& help,
                   std::string* out);

    /// Parses argv. Returns false (and writes a message to @p err) on any
    /// unknown option, missing value, or malformed number. `--help` prints
    /// usage to @p err and also returns false.
    bool parse(int argc, const char* const* argv, std::ostream& err);

    const std::vector<std::string>& positional() const { return positional_; }

    void printHelp(std::ostream& os) const;

private:
    struct Option {
        std::string help;
        bool takesValue = false;
        std::function<bool(const std::string&)> apply;
    };

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_; ///< keyed without leading dashes
    std::vector<std::string> positional_;
};

/// Parses a worker-count value (from --jobs or DSCOH_JOBS): a positive
/// decimal integer. Rejects 0, negatives, garbage and trailing junk with a
/// deterministic message in @p error.
bool parseJobCount(const std::string& text, unsigned& out, std::string& error);

/// Resolves the worker count for a parallel tool. Precedence: an explicit
/// --jobs value (@p flagText, empty = not given), then the DSCOH_JOBS
/// environment variable, then std::thread::hardware_concurrency() (minimum
/// 1). Returns false and fills @p error when an explicit source is invalid.
bool resolveJobs(const std::string& flagText, unsigned& out,
                 std::string& error);

} // namespace dscoh::cli
