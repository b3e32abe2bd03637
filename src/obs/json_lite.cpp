#include "obs/json_lite.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dscoh::jsonlite {

namespace {

class Parser {
public:
    Parser(const std::string& text, std::string& error)
        : text_(text), error_(error)
    {
    }

    ValuePtr run()
    {
        ValuePtr v = parseValue();
        if (v == nullptr)
            return nullptr;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return nullptr;
        }
        return v;
    }

private:
    void fail(const std::string& what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    ValuePtr parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return nullptr;
        }
        switch (text_[pos_]) {
        case '{':
        case '[': {
            // Each open array or object costs a recursion level.
            if (++depth_ > kMaxDepth) {
                fail("nesting deeper than " + std::to_string(kMaxDepth));
                return nullptr;
            }
            ValuePtr v = text_[pos_] == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        case '"': return parseString();
        case 't':
        case 'f': return parseBool();
        case 'n': return parseNull();
        default: return parseNumber();
        }
    }

    bool literal(const char* word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0) {
            fail(std::string("bad literal (expected '") + word + "')");
            return false;
        }
        pos_ += n;
        return true;
    }

    ValuePtr parseBool()
    {
        auto v = std::make_shared<Value>();
        v->kind = Kind::kBool;
        if (text_[pos_] == 't') {
            if (!literal("true"))
                return nullptr;
            v->boolean = true;
        } else {
            if (!literal("false"))
                return nullptr;
            v->boolean = false;
        }
        return v;
    }

    ValuePtr parseNull()
    {
        if (!literal("null"))
            return nullptr;
        auto v = std::make_shared<Value>();
        v->kind = Kind::kNull;
        return v;
    }

    ValuePtr parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) {
            fail("expected a value");
            return nullptr;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            fail("malformed number '" + token + "'");
            return nullptr;
        }
        auto v = std::make_shared<Value>();
        v->kind = Kind::kNumber;
        v->number = d;
        return v;
    }

    ValuePtr parseString()
    {
        ++pos_; // opening quote
        auto v = std::make_shared<Value>();
        v->kind = Kind::kString;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return nullptr;
            }
            const char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v->string += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return nullptr;
            }
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': v->string += '"'; break;
            case '\\': v->string += '\\'; break;
            case '/': v->string += '/'; break;
            case 'b': v->string += '\b'; break;
            case 'f': v->string += '\f'; break;
            case 'n': v->string += '\n'; break;
            case 'r': v->string += '\r'; break;
            case 't': v->string += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return nullptr;
                }
                const std::string hex = text_.substr(pos_, 4);
                char* end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end == nullptr || *end != '\0') {
                    fail("bad \\u escape '" + hex + "'");
                    return nullptr;
                }
                pos_ += 4;
                // Sufficient for this codebase's output: escaped control
                // characters are all < 0x80, so one byte round-trips.
                v->string += static_cast<char>(code);
                break;
            }
            default:
                fail(std::string("unknown escape '\\") + esc + "'");
                return nullptr;
            }
        }
    }

    ValuePtr parseArray()
    {
        ++pos_; // '['
        auto v = std::make_shared<Value>();
        v->kind = Kind::kArray;
        if (consume(']'))
            return v;
        while (true) {
            ValuePtr elem = parseValue();
            if (elem == nullptr)
                return nullptr;
            v->array.push_back(std::move(elem));
            if (consume(']'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return nullptr;
            }
        }
    }

    ValuePtr parseObject()
    {
        ++pos_; // '{'
        auto v = std::make_shared<Value>();
        v->kind = Kind::kObject;
        if (consume('}'))
            return v;
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected a string key in object");
                return nullptr;
            }
            ValuePtr key = parseString();
            if (key == nullptr)
                return nullptr;
            if (!consume(':')) {
                fail("expected ':' after object key");
                return nullptr;
            }
            ValuePtr val = parseValue();
            if (val == nullptr)
                return nullptr;
            v->object[key->string] = std::move(val);
            if (consume('}'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return nullptr;
            }
        }
    }

    const std::string& text_;
    std::string& error_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< arrays and objects open at pos_
};

} // namespace

ValuePtr parse(const std::string& text, std::string& error)
{
    error.clear();
    Parser p(text, error);
    ValuePtr v = p.run();
    if (v == nullptr && error.empty())
        error = "parse failed";
    return v;
}

ValuePtr parseFile(const std::string& path, std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return nullptr;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    ValuePtr v = parse(buf.str(), error);
    if (v == nullptr)
        error = path + ": " + error;
    return v;
}

} // namespace dscoh::jsonlite
