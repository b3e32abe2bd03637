#include "cli/options.h"

#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace dscoh::cli {

void OptionParser::addFlag(const std::string& name, const std::string& help,
                           bool* out)
{
    Option opt;
    opt.help = help;
    opt.takesValue = false;
    opt.apply = [out](const std::string&) {
        *out = true;
        return true;
    };
    options_.emplace(name, std::move(opt));
}

void OptionParser::addUint(const std::string& name, const std::string& help,
                           std::uint64_t* out, std::uint64_t max)
{
    Option opt;
    opt.help = help + " (integer)";
    opt.takesValue = true;
    opt.apply = [out, max](const std::string& value) {
        // stoull would read "-1" as 2^64-1.
        if (value.empty() || value[0] < '0' || value[0] > '9')
            return false;
        try {
            std::size_t used = 0;
            const std::uint64_t v = std::stoull(value, &used, 0);
            if (used != value.size() || v > max)
                return false;
            *out = v;
            return true;
        } catch (const std::exception&) {
            return false;
        }
    };
    options_.emplace(name, std::move(opt));
}

void OptionParser::addString(const std::string& name, const std::string& help,
                             std::string* out)
{
    Option opt;
    opt.help = help;
    opt.takesValue = true;
    opt.apply = [out](const std::string& value) {
        *out = value;
        return true;
    };
    options_.emplace(name, std::move(opt));
}

bool OptionParser::parse(int argc, const char* const* argv, std::ostream& err)
{
    positional_.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool hasValue = false;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            hasValue = true;
        }
        if (name == "help") {
            printHelp(err);
            return false;
        }
        const auto it = options_.find(name);
        if (it == options_.end()) {
            err << program_ << ": unknown option --" << name << "\n";
            return false;
        }
        if (it->second.takesValue && !hasValue) {
            if (i + 1 >= argc) {
                err << program_ << ": --" << name << " needs a value\n";
                return false;
            }
            value = argv[++i];
        }
        if (!it->second.takesValue && hasValue) {
            err << program_ << ": --" << name << " takes no value\n";
            return false;
        }
        if (!it->second.apply(value)) {
            err << program_ << ": bad value for --" << name << ": '" << value
                << "'\n";
            return false;
        }
    }
    return true;
}

bool parseJobCount(const std::string& text, unsigned& out, std::string& error)
{
    if (text.empty()) {
        error = "job count is empty";
        return false;
    }
    // Strict: digits only, so "0", "-3", "2x" and "1e3" all fail loudly
    // instead of silently truncating.
    for (const char c : text) {
        if (c < '0' || c > '9') {
            error = "job count '" + text + "' is not a positive integer";
            return false;
        }
    }
    unsigned long long value = 0;
    try {
        value = std::stoull(text);
    } catch (const std::exception&) {
        error = "job count '" + text + "' is out of range";
        return false;
    }
    if (value == 0) {
        error = "job count must be at least 1";
        return false;
    }
    if (value > 4096) {
        error = "job count '" + text + "' is unreasonably large (max 4096)";
        return false;
    }
    out = static_cast<unsigned>(value);
    return true;
}

bool resolveJobs(const std::string& flagText, unsigned& out, std::string& error)
{
    if (!flagText.empty())
        return parseJobCount(flagText, out, error);
    if (const char* env = std::getenv("DSCOH_JOBS");
        env != nullptr && *env != '\0') {
        if (!parseJobCount(env, out, error)) {
            error = "DSCOH_JOBS: " + error;
            return false;
        }
        return true;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    out = hw == 0 ? 1 : hw;
    return true;
}

void OptionParser::printHelp(std::ostream& os) const
{
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const auto& [name, opt] : options_)
        os << "  --" << name << (opt.takesValue ? " <value>" : "") << "\n      "
           << opt.help << "\n";
    os << "  --help\n      show this message\n";
}

} // namespace dscoh::cli
