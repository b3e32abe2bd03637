// A minimal strict JSON reader.
//
// Just enough JSON to validate and analyze the files this repository
// produces (trace-event traces, stats dumps, sweep results): objects,
// arrays, strings with the common escapes, numbers, booleans, null. Used by
// tools/trace_stats and by the observability tests to prove emitted output
// is well-formed. Not a general-purpose library — it favors smallness and
// deterministic error messages over speed.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dscoh::jsonlite {

class Value;
using ValuePtr = std::shared_ptr<Value>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
public:
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<ValuePtr> array;
    std::map<std::string, ValuePtr> object;

    bool isObject() const { return kind == Kind::kObject; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isString() const { return kind == Kind::kString; }
    bool isNumber() const { return kind == Kind::kNumber; }

    /// Object member, or nullptr when absent / not an object.
    const Value* get(const std::string& key) const
    {
        if (kind != Kind::kObject)
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : it->second.get();
    }

    /// True for a number that is an exact integer in [0, 2^53], the range
    /// a double holds exactly.
    bool isUint() const
    {
        return kind == Kind::kNumber && number >= 0.0 &&
               number <= 9007199254740992.0 && number == std::floor(number);
    }

    /// The number as an unsigned integer, or 0 when !isUint().
    std::uint64_t asUint() const
    {
        return isUint() ? static_cast<std::uint64_t>(number) : 0;
    }
};

/// Deepest nesting of arrays and objects parse() accepts. The documents
/// this repository writes nest at most 5 deep; the limit keeps the
/// recursive parser's stack bounded on hostile input.
inline constexpr int kMaxDepth = 64;

/// Parses @p text. On failure returns nullptr and fills @p error with a
/// message that includes the byte offset of the problem. Trailing
/// non-whitespace after the document, and nesting deeper than kMaxDepth,
/// are errors.
ValuePtr parse(const std::string& text, std::string& error);

/// Reads and parses the file at @p path. On failure returns nullptr and
/// fills @p error with "cannot open <path>" or "<path>: <parse error>".
ValuePtr parseFile(const std::string& path, std::string& error);

} // namespace dscoh::jsonlite
