#include "sim/json_writer.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace dscoh {

std::string jsonEscape(std::string_view s)
{
    JsonWriter w;
    const std::string_view quoted = w.value(s).str();
    return std::string(quoted.substr(1, quoted.size() - 2));
}

char* JsonWriter::escape(char* p, char c)
{
    *p++ = '\\';
    switch (c) {
    case '"':
    case '\\': *p++ = c; return p;
    case '\n': *p++ = 'n'; return p;
    case '\t': *p++ = 't'; return p;
    default:
        static constexpr char kHex[] = "0123456789abcdef";
        p = std::copy_n("u00", 3, p);
        *p++ = kHex[(c >> 4) & 0xf];
        *p++ = kHex[c & 0xf];
        return p;
    }
}

char* JsonWriter::separator(std::size_t n)
{
    Frame& f = stack_.back();
    const bool first = f.empty;
    f.empty = false;
    if (f.indent == kInline) {
        char* p = room(n + 2);
        if (!first) {
            *p++ = ',';
            *p++ = ' ';
        }
        return p;
    }
    char* p = room(n + 2 + static_cast<std::size_t>(f.indent));
    if (!first)
        *p++ = ',';
    *p++ = '\n';
    return std::fill_n(p, f.indent, ' ');
}

void JsonWriter::grow(std::size_t n)
{
    // A stream takes what is rendered so far rather than the buffer
    // growing to the document's size.
    constexpr std::size_t kChunk = 64 * 1024;
    if (os_ != nullptr && len_ >= kChunk) {
        os_->write(buf_.data(), static_cast<std::streamsize>(len_));
        len_ = 0;
    }
    if (buf_.size() - len_ < n)
        buf_.resize(std::max({2 * buf_.size(), len_ + n, std::size_t{256}}));
}

JsonWriter& JsonWriter::open(char opener, int indent)
{
    char* p = item(1);
    *p++ = opener;
    commit(p);
    stack_.push_back({indent, opener == '{' ? '}' : ']', true});
    return *this;
}

JsonWriter& JsonWriter::end()
{
    const Frame f = stack_.back();
    stack_.pop_back();
    const int closerIndent = std::max(f.indent - 2, 0);
    char* p = room(3 + static_cast<std::size_t>(closerIndent));
    if (f.indent != kInline && (!f.empty || f.closer == ']')) {
        *p++ = '\n';
        p = std::fill_n(p, closerIndent, ' ');
    }
    *p++ = f.closer;
    if (stack_.empty() && os_ != nullptr) {
        *p++ = '\n';
        os_->write(buf_.data(), p - buf_.data());
        p = buf_.data();
    }
    commit(p);
    return *this;
}

JsonWriter& JsonWriter::put(std::string_view text)
{
    char* p = item(text.size());
    commit(std::copy(text.begin(), text.end(), p));
    return *this;
}

JsonWriter& JsonWriter::print(const char* format, int precision, double v)
{
    char text[352]; // %.3f of the largest double is 313 bytes
    const int n = std::snprintf(text, sizeof text, format, precision, v);
    return put({text, std::min(static_cast<std::size_t>(n), sizeof text - 1)});
}

JsonWriter& JsonWriter::hex(std::uint64_t v)
{
    char* p = item(20);
    *p++ = '"';
    *p++ = '0';
    *p++ = 'x';
    p = std::to_chars(p, p + 16, v, 16).ptr;
    *p++ = '"';
    commit(p);
    return *this;
}

std::string JsonWriter::take()
{
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
}

} // namespace dscoh
