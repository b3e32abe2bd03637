// The one JSON writer behind every document the simulator and its tools
// emit: stats, results and journal lines, traces, epoch samples, txnprof
// profiles, progress documents, and the sweep service's replies, WAL
// records and request lines. It decides in one place how strings are
// escaped, how members are separated and laid out, and how numbers print
// (DESIGN §7.21). It lives in dscoh_sim because StatRegistry writes
// through it and dscoh_obs, home of the json_lite reader, depends on
// dscoh_sim.
//
// Each token reserves its bytes in one buffer and is stored in place; a
// stream takes the buffer in 64 KiB chunks and when the outermost
// container closes, which is cheaper than a stream call per token.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dscoh {

/// Escapes @p s for embedding in a JSON string literal: quote, backslash,
/// \n and \t get their short forms, other control bytes become \u00XX.
/// The writer's own escaper.
std::string jsonEscape(std::string_view s);

class JsonWriter {
public:
    /// Container layout: kInline keeps the members on the opener's line,
    /// ", "-separated. An indent N >= 0 puts each member on its own line,
    /// N spaces deep, and the closer on its own line N - 2 deep (at least
    /// 0). An empty such array still closes on its own line ("[\n  ]");
    /// an empty such object is "{}".
    static constexpr int kInline = -1;

    /// Renders into str().
    JsonWriter() = default;
    /// Writes one document and a newline after it to @p os: in 64 KiB
    /// chunks while it grows, the rest when the outermost container closes.
    explicit JsonWriter(std::ostream& os) : os_(&os) {}

    JsonWriter& object(int indent = kInline) { return open('{', indent); }
    JsonWriter& array(int indent = kInline) { return open('[', indent); }
    /// Closes the innermost open container.
    JsonWriter& end();

    /// The next member's key; its value follows.
    JsonWriter& key(std::string_view k)
    {
        char* p = quote(item(6 * k.size() + 4), k);
        *p++ = ':';
        *p++ = ' ';
        commit(p);
        afterKey_ = true;
        return *this;
    }

    /// A string, escaped.
    JsonWriter& value(std::string_view s)
    {
        commit(quote(item(6 * s.size() + 2), s));
        return *this;
    }
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b) { return put(b ? "true" : "false"); }
    template <std::integral T>
    JsonWriter& value(T v)
    {
        char* p = item(24);
        commit(std::to_chars(p, p + 24, v).ptr);
        return *this;
    }
    /// A double as printf's %g writes it (the stream default).
    JsonWriter& value(double v) { return print("%.*g", 6, v); }
    /// A double with @p decimals fixed decimals (printf's %.Nf).
    JsonWriter& fixed(double v, int decimals)
    {
        return print("%.*f", decimals, v);
    }
    /// An address or hash as the string "0x<lowercase hex>".
    JsonWriter& hex(std::uint64_t v);
    /// A member, element or value rendered elsewhere, written as is.
    JsonWriter& raw(std::string_view rendered) { return put(rendered); }

    std::string_view str() const { return {buf_.data(), len_}; }
    std::string take();

private:
    struct Frame {
        int indent;
        char closer;
        bool empty;
    };

    JsonWriter& open(char opener, int indent);
    JsonWriter& put(std::string_view text);
    JsonWriter& print(const char* format, int precision, double v);

    /// Room for @p n more bytes; returns where they go. commit() ends them.
    char* room(std::size_t n)
    {
        if (buf_.size() - len_ < n)
            grow(n);
        return buf_.data() + len_;
    }
    void grow(std::size_t n);
    void commit(const char* end)
    {
        len_ = static_cast<std::size_t>(end - buf_.data());
    }

    /// Starts a member or element: its separator (none after a key), then
    /// room for @p n more bytes.
    char* item(std::size_t n)
    {
        if (afterKey_ || stack_.empty()) {
            afterKey_ = false;
            return room(n);
        }
        return separator(n);
    }
    char* separator(std::size_t n);

    /// Writes @p s quoted and escaped at @p p; needs 6 * size + 2 bytes.
    static char* quote(char* p, std::string_view s)
    {
        *p++ = '"';
        for (const char c : s) {
            if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\')
                *p++ = c;
            else
                p = escape(p, c);
        }
        *p++ = '"';
        return p;
    }
    static char* escape(char* p, char c);

    std::ostream* os_ = nullptr;
    std::string buf_; ///< rendered bytes [0, len_), then spare room
    std::size_t len_ = 0;
    std::vector<Frame> stack_;
    bool afterKey_ = false;
};

} // namespace dscoh
