// The golden ledgers' text format (tests/golden/*_digests.tsv): '#' lines
// are comments, the first other line names the columns, and each later
// line is one row of tab-separated fields.
#pragma once

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace dscoh::ledger {

inline std::vector<std::string> split(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::istringstream in(text);
    std::string part;
    while (std::getline(in, part, sep))
        parts.push_back(part);
    return parts;
}

/// The rows of @p path that have @p columns fields. A row with another
/// count is dropped, for the ledger's row-count test to catch.
inline std::vector<std::vector<std::string>> rows(const std::string& path,
                                                  std::size_t columns)
{
    std::ifstream in(path);
    std::vector<std::vector<std::string>> rows;
    bool header = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (header) {
            header = false;
            continue;
        }
        std::vector<std::string> fields = split(line, '\t');
        if (fields.size() == columns)
            rows.push_back(std::move(fields));
    }
    return rows;
}

} // namespace dscoh::ledger
