#include "util/json.h"

#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace hercules::util {

std::string
jsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

std::string
shortestDecimal(double v)
{
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return "0";
}

bool
closeFile(std::FILE* f)
{
    if (f == nullptr)
        return false;
    bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

JsonWriter::JsonWriter(const std::string& path)
    : f_(std::fopen(path.c_str(), "w"))
{
}

JsonWriter::~JsonWriter()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

bool
JsonWriter::close()
{
    if (!stack_.empty())
        panic("JsonWriter: close() with %zu open containers",
              stack_.size());
    std::FILE* f = f_;
    f_ = nullptr;
    return closeFile(f);
}

void
JsonWriter::write(std::string_view text)
{
    if (f_ != nullptr)
        std::fwrite(text.data(), 1, text.size(), f_);
}

void
JsonWriter::newline()
{
    write("\n");
    for (size_t i = 0; i < stack_.size(); ++i)
        write("  ");
}

void
JsonWriter::place()
{
    if (stack_.empty())
        return;
    Frame& top = stack_.back();
    if (top.close == '}') {
        if (!top.key_pending)
            panic("JsonWriter: object member without a key");
        top.key_pending = false;
    } else {
        nextMember();
    }
}

void
JsonWriter::nextMember()
{
    Frame& top = stack_.back();
    if (top.members++ > 0)
        write(top.inline_layout ? ", " : ",");
    if (!top.inline_layout)
        newline();
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    if (stack_.empty() || stack_.back().close != '}' ||
        stack_.back().key_pending)
        panic("JsonWriter: key \"%.*s\" outside an object member slot",
              static_cast<int>(name.size()), name.data());
    nextMember();
    write(jsonQuote(name));
    write(": ");
    stack_.back().key_pending = true;
    return *this;
}

JsonWriter&
JsonWriter::begin(char open, Layout layout)
{
    const bool in_inline = !stack_.empty() && stack_.back().inline_layout;
    place();
    write(std::string_view(&open, 1));
    stack_.push_back({open == '{' ? '}' : ']',
                      in_inline || layout == Inline});
    return *this;
}

JsonWriter&
JsonWriter::end(char close)
{
    if (stack_.empty() || stack_.back().close != close ||
        stack_.back().key_pending)
        panic("JsonWriter: unbalanced '%c'", close);
    const Frame top = stack_.back();
    stack_.pop_back();
    if (!top.inline_layout && top.members > 0)
        newline();
    return finishValue(std::string_view(&close, 1));
}

JsonWriter&
JsonWriter::scalar(std::string_view text)
{
    place();
    return finishValue(text);
}

JsonWriter&
JsonWriter::finishValue(std::string_view text)
{
    write(text);
    if (stack_.empty())
        write("\n");  // a root value ends its line
    return *this;
}

JsonWriter&
JsonWriter::fixed(double v, int decimals)
{
    if (decimals < 0 || decimals > 17)
        panic("JsonWriter: %d decimals", decimals);
    if (!std::isfinite(v))
        return null();
    char buf[336];  // DBL_MAX has 309 integer digits
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return scalar(buf);
}

JsonWriter&
JsonWriter::general(double v, int digits)
{
    if (digits < 1 || digits > 17)
        panic("JsonWriter: %d significant digits", digits);
    if (!std::isfinite(v))
        return null();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    return scalar(buf);
}

JsonWriter&
JsonWriter::shortest(double v)
{
    return std::isfinite(v) ? scalar(shortestDecimal(v)) : null();
}

}  // namespace hercules::util
